// Quickstart: assemble Pneuma-Seeker over a small corpus, ask a question in
// plain language, and watch the shared state (T, Q) converge to an answer.
package main

import (
	"context"
	"fmt"
	"log"

	"pneuma"
)

func main() {
	ctx := context.Background()
	// The synthetic archaeology benchmark dataset (5 tables).
	corpus := pneuma.ArchaeologyDataset()

	// New assembles the concurrency-safe serving facade; every knob is a
	// functional option (none needed for defaults).
	svc, err := pneuma.New(corpus)
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	sess := svc.NewSession("quickstart-user")

	// One vague opener, then a concrete question — the Conductor retrieves,
	// defines (T, Q), materializes T, executes Q and reports.
	for _, msg := range []string{
		"Could you give me an overview of the soil chemistry data we have for the Malta region?",
		"What is the average organic matter percentage for soil samples in the Malta region? Round your answer to 4 decimal places.",
	} {
		fmt.Printf(">>> %s\n\n", msg)
		reply, err := sess.Send(ctx, msg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(reply.Message)
		fmt.Println()
	}

	// The state view (the paper's Figure 2, box 3).
	state := sess.Session().State
	fmt.Println(state.View())
	if ans, ok := state.Answer(); ok {
		fmt.Printf("Final answer: %s\n", ans)
	}
}
