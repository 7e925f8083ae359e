package retriever

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"pneuma/internal/docs"
	"pneuma/internal/vecmath"
)

// scalarParityPrefix marks the result lines the scalar child process of
// TestScalarDispatchParity prints for its parent.
const scalarParityPrefix = "scalar-parity\t"

// forceScalarEnv pins a process's vecmath kernels to the scalar tier.
const forceScalarEnv = "PNEUMA_FORCE_SCALAR"

// TestScalarDispatchParity is the retriever-level half of the SIMD
// determinism contract: search results must be bit-identical between this
// process's kernel tier and the scalar tier — same IDs, same order, same
// scores — at every shard count and on both backends. The kernel
// differential tests prove each primitive agrees at every vector length;
// this proves nothing above them (normalization at embed time, HNSW
// traversal order, RRF fusion) lets a tier leak into ranking.
//
// The tier is fixed per process, so the scalar side runs in a copy of
// this test binary started with PNEUMA_FORCE_SCALAR=1, which builds the
// same indexes and prints its results for the parent to compare. A
// process started with the variable set (the child, or a `make
// tier1-scalar` run) only reports.
func TestScalarDispatchParity(t *testing.T) {
	var scalar map[string]string
	if os.Getenv(forceScalarEnv) == "" {
		scalar = scalarParityResults(t)
	} else if vecmath.Tier() != "scalar" {
		t.Fatalf("%s is set but the %s tier serves", forceScalarEnv, vecmath.Tier())
	}
	tables := corpusSlice(48)
	for _, shards := range []int{1, 4, 8} {
		for _, backend := range []Backend{Memory, Disk} {
			name := fmt.Sprintf("%s-%dshard", backend, shards)
			t.Run(name, func(t *testing.T) {
				opts := []Option{WithShards(shards), WithBackend(backend)}
				if backend == Disk {
					opts = append(opts, WithDir(t.TempDir()))
				}
				r, err := Open(opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				if err := r.IndexTables(context.Background(), tables); err != nil {
					t.Fatal(err)
				}
				for _, q := range parityQueries {
					key, got := name+"|"+q, formatParity(mustSearch(t, r, q, 10))
					if scalar == nil {
						fmt.Printf("%s%s\t%s\n", scalarParityPrefix, key, got)
						continue
					}
					if want, ok := scalar[key]; !ok || got != want {
						t.Errorf("%s: %s tier\n  got    %s\n  scalar %s", key, vecmath.Tier(), got, want)
					}
				}
			})
		}
	}
}

// scalarParityResults runs TestScalarDispatchParity in a child process
// pinned to the scalar tier and returns its results by subtest|query.
func scalarParityResults(t *testing.T) map[string]string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestScalarDispatchParity$", "-test.count=1")
	cmd.Env = append(os.Environ(), forceScalarEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("scalar child: %v\n%s", err, out)
	}
	res := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), scalarParityPrefix)
		if !ok {
			continue
		}
		key, val, _ := strings.Cut(line, "\t")
		res[key] = val
	}
	if want := len(parityQueries) * 6; len(res) != want {
		t.Fatalf("scalar child reported %d results, want %d:\n%s", len(res), want, out)
	}
	return res
}

// formatParity renders a result list exactly: IDs in order with their
// scores' bit patterns.
func formatParity(hits []docs.Document) string {
	parts := make([]string, len(hits))
	for i, h := range hits {
		parts[i] = fmt.Sprintf("%s:%x", h.ID, math.Float64bits(h.Score))
	}
	return strings.Join(parts, " ")
}
