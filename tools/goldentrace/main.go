// Command goldentrace regenerates the golden traces under
// internal/bench/testdata. They pin the engine's normal case (see
// TestGoldenTraces in internal/bench/golden_test.go): three short
// simulated runs must reproduce them byte for byte, so a refactor that
// changes any event or virtual timestamp fails. golden_g1_rw_piggyback is
// the 0/0 run with piggybacked commits on; it moves when
// core.Replica.settleCommits does.
//
// Regenerate ONLY when an intentional engine change moves the baseline —
// from a commit where the engine's behavior is known-good:
//
//	go run ./tools/goldentrace
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bftfast/internal/bench"
	"bftfast/internal/obs"
)

func main() {
	out := flag.String("out", "internal/bench/testdata", "output directory")
	flag.Parse()

	for _, tc := range []struct {
		name      string
		clients   int
		ro        bool
		piggyback bool
	}{
		// Parameters are mirrored by goldenParams in golden_test.go; keep
		// the two in lockstep.
		{"golden_g1_rw", 6, false, false},
		{"golden_g1_ro", 4, true, false},
		{"golden_g1_rw_piggyback", 6, false, true},
	} {
		p := bench.DefaultMicroParams()
		p.Clients = tc.clients
		p.ReadOnly = tc.ro
		p.Opts.PiggybackCommits = tc.piggyback
		p.Warmup = 40 * time.Millisecond
		p.Measure = 80 * time.Millisecond
		p.Trace = true
		res := bench.RunMicro(p)

		f, err := os.Create(filepath.Join(*out, tc.name+".trc"))
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteTrace(f, res.Events); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		// Headline metrics alongside, as a human-readable second gate.
		headline := fmt.Sprintf("completed=%d lost=%d throughput=%.6f latency=%d p50=%d p99=%d\n",
			res.Completed, res.Lost, res.Throughput, int64(res.Latency), int64(res.P50), int64(res.P99))
		if err := os.WriteFile(filepath.Join(*out, tc.name+".headline"), []byte(headline), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d events, %s", tc.name, len(res.Events), headline)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "goldentrace:", err)
	os.Exit(1)
}
