package bench

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bftfast/internal/obs"
	"bftfast/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden file of the test run")

// goldenParams is the configuration of the golden trace runs. Any drift
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
// short simulated runs — virtual timestamps included — must hash to the
// digest in testdata/traces.golden, and their headline metrics must match
// the line beside it. golden_rw_piggyback is the read-write run with
// piggybacked commits on. Run with -update only for a deliberate change of
// normal-case behaviour; on a mismatch the trace is written out for
// bft-trace -decode.
func TestGoldenTraces(t *testing.T) {
	path := filepath.Join("testdata", "traces.golden")
	want := make(map[string]string)
	if !*update {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			name, _, _ := strings.Cut(line, " ")
			want[name] = line
		}
	}
	var lines []string
	for _, tc := range []struct {
		name      string
		clients   int
		ro        bool
		piggyback bool
	}{
		{"golden_rw", 6, false, false},
		{"golden_ro", 4, true, false},
		{"golden_rw_piggyback", 6, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := RunMicro(goldenParams(tc.clients, tc.ro, tc.piggyback))
			var buf bytes.Buffer
			if err := obs.WriteTrace(&buf, res.Events); err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%s trace bytes=%d sha256=%x completed=%d lost=%d throughput=%.6f latency=%d p50=%d p99=%d",
				tc.name, buf.Len(), sha256.Sum256(buf.Bytes()),
				res.Completed, res.Lost, res.Throughput, int64(res.Latency), int64(res.P50), int64(res.P99))
			lines = append(lines, got)
			if *update || got == want[tc.name] {
				return
			}
			trc := filepath.Join(t.TempDir(), tc.name+".trc")
			if err := os.WriteFile(trc, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Errorf("%s differs\n got: %s\nwant: %s\ntrace: %s", path, got, want[tc.name], trc)
		})
	}
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
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

// TestFSFiguresGolden pins Figures 8 and 9 at reduced size byte for byte:
// the output of `bfs-bench -figure all -copies 5,20 -files 200
// -transactions 1000`. -update regenerates it, only for a deliberate
// change.
func TestFSFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("file-system figures are not short")
	}
	pm := workload.DefaultPostMark()
	pm.InitialFiles = 200
	pm.Transactions = 1000
	var buf bytes.Buffer
	for _, name := range FSFigureNames {
		WriteFSFigure(&buf, name, []int{5, 20}, pm)
	}
	path := filepath.Join("testdata", "fs_figures.golden")
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
