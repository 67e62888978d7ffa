package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bftfast/internal/obs"
)

// goldenParams reproduces the exact configuration the checked-in golden
// traces were captured with (tools/goldentrace regenerates them). Any drift
// here breaks the comparison by construction, not by protocol change.
func goldenParams(clients int, readOnly, piggyback bool) MicroParams {
	p := DefaultMicroParams()
	p.Clients = clients
	p.ReadOnly = readOnly
	p.Opts.PiggybackCommits = piggyback
	p.Warmup = 40 * time.Millisecond
	p.Measure = 80 * time.Millisecond
	p.Trace = true
	return p
}

// TestParallelLeaderG1BitIdentical is the tentpole's backward-compatibility
// contract: with Instances at 0 (unset) or 1, the engine must reproduce the
// single-leader engine's behavior bit for bit. The golden traces under
// testdata/ were captured from the engine BEFORE the multi-instance change
// landed, so every event — virtual timestamps included — and every headline
// metric must match byte-for-byte. golden_g1_rw_piggyback, captured when
// the commit flush policy landed, holds the same run with piggybacked
// commits on to the same standard.
func TestParallelLeaderG1BitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name      string
		clients   int
		ro        bool
		piggyback bool
	}{
		{"golden_g1_rw", 6, false, false},
		{"golden_g1_ro", 4, true, false},
		{"golden_g1_rw_piggyback", 6, false, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", tc.name+".trc"))
			if err != nil {
				t.Fatal(err)
			}
			wantHeadline, err := os.ReadFile(filepath.Join("testdata", tc.name+".headline"))
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range []int{0, 1} {
				p := goldenParams(tc.clients, tc.ro, tc.piggyback)
				p.Instances = g
				res := RunMicro(p)

				var buf bytes.Buffer
				if err := obs.WriteTrace(&buf, res.Events); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), golden) {
					t.Errorf("g=%d: trace differs from the pre-change golden (%d vs %d bytes)",
						g, buf.Len(), len(golden))
				}
				gotHeadline := fmt.Sprintf("completed=%d lost=%d throughput=%.6f latency=%d p50=%d p99=%d\n",
					res.Completed, res.Lost, res.Throughput, int64(res.Latency), int64(res.P50), int64(res.P99))
				if gotHeadline != string(wantHeadline) {
					t.Errorf("g=%d: headline metrics differ:\n  got:  %s  want: %s",
						g, gotHeadline, wantHeadline)
				}
			}
		})
	}
}

// TestParallelLeaderScalesSaturatedThroughput pins the tentpole's headline
// result in the regime the paper's Figure 4 saturates the leader: with
// enough clients that the single leader's CPU is the bottleneck, adding
// ordering instances must raise 0/0 throughput monotonically, and no
// operation may be lost along the way.
func TestParallelLeaderScalesSaturatedThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("saturated-throughput sweep is not short")
	}
	var last float64
	for _, g := range []int{1, 2, 4} {
		p := DefaultMicroParams()
		p.Clients = 150
		p.Warmup = 100 * time.Millisecond
		p.Measure = 250 * time.Millisecond
		p.Instances = g
		res := RunMicro(p)
		t.Logf("g=%d: throughput=%.0f ops/s latency=%v lost=%d", g, res.Throughput, res.Latency, res.Lost)
		if res.Lost != 0 {
			t.Fatalf("g=%d: lost %d operations", g, res.Lost)
		}
		if res.Throughput <= last {
			t.Fatalf("g=%d: throughput %.0f ops/s not above g/2's %.0f ops/s (saturated scaling broken)",
				g, res.Throughput, last)
		}
		last = res.Throughput
	}
}
