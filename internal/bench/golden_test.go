package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bftfast/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden")

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

// TestGoldenTraces pins the engine's normal case: every event of three
// short simulated runs — virtual timestamps included — and their headline
// metrics must match the traces under testdata/ byte for byte.
// golden_g1_rw_piggyback is the read-write run with piggybacked commits on.
func TestGoldenTraces(t *testing.T) {
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
		t.Run(tc.name, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", tc.name+".trc"))
			if err != nil {
				t.Fatal(err)
			}
			wantHeadline, err := os.ReadFile(filepath.Join("testdata", tc.name+".headline"))
			if err != nil {
				t.Fatal(err)
			}
			res := RunMicro(goldenParams(tc.clients, tc.ro, tc.piggyback))

			var buf bytes.Buffer
			if err := obs.WriteTrace(&buf, res.Events); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), golden) {
				t.Errorf("trace differs from the golden (%d vs %d bytes)", buf.Len(), len(golden))
			}
			gotHeadline := fmt.Sprintf("completed=%d lost=%d throughput=%.6f latency=%d p50=%d p99=%d\n",
				res.Completed, res.Lost, res.Throughput, int64(res.Latency), int64(res.P50), int64(res.P99))
			if gotHeadline != string(wantHeadline) {
				t.Errorf("headline metrics differ:\n  got:  %s  want: %s", gotHeadline, wantHeadline)
			}
		})
	}
}

// TestFiguresGolden pins every simulator figure at -scale 0.05 byte for
// byte: the output of `bft-bench -figure all -scale 0.05`. A change that
// moves a figure on purpose regenerates the golden with
// `go test ./internal/bench -run TestFiguresGolden -update` and shows the
// diff.
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep is not short")
	}
	var buf bytes.Buffer
	for _, name := range FigureNames {
		WriteFigure(&buf, name, ClientCounts, 0.05)
	}
	path := filepath.Join("testdata", "figures.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("figures differ from %s (%d vs %d bytes); got:\n%s", path, buf.Len(), len(want), buf.String())
	}
}
