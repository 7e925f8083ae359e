// Command pneuma-index builds a Pneuma-Retriever hybrid index over a CSV
// directory and runs queries against it from the command line — the
// standalone table-discovery workflow. The index is sharded and the corpus
// is bulk-ingested through the embedding worker pool.
//
//	pneuma-index -dir ./data/archaeology -q "potassium in soil samples"
//	pneuma-index -dir ./data/environment -q "rainfall" -shards 4 -workers 8
//	pneuma-index -dir ./data/environment -q "rainfall" -backend disk -index-dir ./idx
//
// With -backend disk the index is persisted to append-only segment files
// under -index-dir and reloaded on the next run against the same
// directory: a run that finds a populated index skips ingest entirely and
// queries the loaded segments (pass -reindex to force re-ingest after the
// CSV directory changes).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"pneuma"
	"pneuma/internal/retriever"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	dir := flag.String("dir", "", "CSV directory to index")
	query := flag.String("q", "", "query to run against the index")
	k := flag.Int("k", 5, "number of results")
	shards := flag.Int("shards", 0, "index shard count (0 = GOMAXPROCS-derived default)")
	workers := flag.Int("workers", 0, "embedding worker-pool size (0 = GOMAXPROCS)")
	backendName := flag.String("backend", "", "shard storage backend: memory (default) or disk")
	indexDir := flag.String("index-dir", "", "segment directory for -backend disk (default: temp dir)")
	reindex := flag.Bool("reindex", false, "re-ingest the CSV directory even if -index-dir already holds an index")
	syncBytes := flag.Int64("sync-bytes", 0, "group-commit fsync once pending disk records reach n bytes (0 = unset, 1 = every record)")
	syncInterval := flag.Duration("sync-interval", 0, "max time an acknowledged disk write stays unsynced (0 = unset; 2ms when -sync-bytes is set)")
	compactRatio := flag.Float64("compaction-ratio", 0, "dead-record fraction triggering disk segment compaction (0 = default 0.5, negative disables)")
	quantize := flag.Bool("quantize", false, "int8 speed tier: quantized vector traversal with exact float32 rescoring")
	mmap := flag.Bool("mmap", false, "memory-map disk snapshots on open instead of reading them")
	flag.Parse()

	if *dir == "" || *query == "" {
		fmt.Fprintln(os.Stderr, "usage: pneuma-index -dir <csvdir> -q <query> [-k n] [-shards n] [-workers n] [-backend memory|disk] [-index-dir path]")
		os.Exit(2)
	}
	backend, err := pneuma.ParseBackend(*backendName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pneuma-index:", err)
		os.Exit(2)
	}
	corpus, err := pneuma.LoadDir(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pneuma-index:", err)
		os.Exit(1)
	}
	// Zero flag values are the options' own "keep the default" inputs.
	ret, err := retriever.Open(
		retriever.WithShards(*shards), retriever.WithWorkers(*workers),
		retriever.WithBackend(backend), retriever.WithDir(*indexDir),
		retriever.WithSyncBytes(*syncBytes), retriever.WithSyncInterval(*syncInterval),
		retriever.WithCompactionRatio(*compactRatio),
		retriever.WithQuantize(*quantize), retriever.WithMmap(*mmap),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pneuma-index:", err)
		os.Exit(1)
	}
	// Close flushes (snapshotting disk shards for a fast next open) and
	// releases the index-directory lock.
	defer ret.Close()
	where := string(ret.Backend())
	if d := ret.Dir(); d != "" {
		where += " @ " + d
	}
	// A populated disk index was just replayed from its segment files;
	// re-ingesting the CSVs would only append replacement records and
	// grow the log, so skip it unless the caller forces -reindex.
	if loaded := ret.Len(); loaded > 0 && !*reindex {
		fmt.Printf("loaded %d documents across %d shards (%s) without re-ingest;", loaded, ret.NumShards(), where)
	} else {
		tables := make([]*pneuma.Table, 0, len(corpus))
		for _, t := range corpus {
			tables = append(tables, t)
		}
		start := time.Now()
		if err := ret.IndexTables(ctx, tables); err != nil {
			fmt.Fprintln(os.Stderr, "pneuma-index:", err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		if err := ret.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "pneuma-index:", err)
			os.Exit(1)
		}
		fmt.Printf("%d tables indexed across %d shards (%s) in %v (%.0f tables/sec);",
			len(corpus), ret.NumShards(), where, elapsed.Round(time.Millisecond),
			float64(len(corpus))/elapsed.Seconds())
	}
	hits, err := ret.Search(ctx, *query, *k)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pneuma-index:", err)
		os.Exit(1)
	}
	fmt.Printf(" top %d for %q:\n\n", len(hits), *query)
	for i, h := range hits {
		fmt.Printf("%d. %s (score %.4f)\n", i+1, h.Title, h.Score)
		if h.Table != nil {
			fmt.Printf("   %s\n", h.Table.Schema.String())
		}
	}
}
