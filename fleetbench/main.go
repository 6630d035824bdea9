// Command fleetbench is the repository's end-to-end benchmark. It boots
// a 2-shard fleet inside one process — real serve.Server shards and a
// shard.Router behind shard.NewServer, each on a loopback listener —
// and drives one seeded workload through the router's HTTP API: an
// open-loop phase at a fixed rate, then a closed-loop phase at nproc
// clients. It checks every answer, replays a sample against one
// reference engine, and prints one JSON result line:
//
//	fleetbench --workload range-mix --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans at the client, router, rpc and shard boundaries and
// reports the per-layer metrics instead. METRICS.md maps each metric
// to the workload and end-to-end metric it should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// outDir holds the durable shards' data and the run records, inside
// the working directory.
const outDir = ".bench_build/fleetbench"

func main() {
	var (
		name    = flag.String("workload", "", "workload: range-mix, nn-mix, ingest-standing or paged-range")
		seed    = flag.Int64("seed", 1, "input generator seed")
		seconds = flag.Float64("seconds", 12, "timed seconds (open-loop plus closed-loop phase)")
		traced  = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "fleetbench: bad arguments (workload %q: %v)\n", *name, err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := runConfig{
		w:       w,
		seed:    *seed,
		seconds: *seconds,
		trace:   *traced == 1,
		scale:   1,
		setups:  3,
		dir:     filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid())),
		log:     os.Stderr,
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
