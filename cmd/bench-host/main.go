// Command bench-host runs the host-performance microbenchmarks
// (internal/hostbench) through testing.Benchmark and writes a
// machine-readable report:
//
//	go run ./cmd/bench-host -out BENCH_host.json
//
// With -compare it reads two reports and prints a benchstat-style
// before/after table instead of running anything:
//
//	go run ./cmd/bench-host -compare BENCH_host_before.json BENCH_host.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"text/tabwriter"

	"bftfast/internal/hostbench"
)

// reportSchema versions the JSON layout for downstream tooling.
const reportSchema = "bftfast/bench-host/v1"

type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Extra carries benchmark-reported custom metrics (b.ReportMetric),
	// e.g. the simulated latency percentiles of the end-to-end point.
	Extra map[string]float64 `json:"extra,omitempty"`
}

type report struct {
	Schema     string   `json:"schema"`
	GoOS       string   `json:"goos"`
	GoArch     string   `json:"goarch"`
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"num_cpu"`
	Benchmarks []result `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "BENCH_host.json", "report output path")
	compare := flag.Bool("compare", false, "compare two existing reports: bench-host -compare OLD NEW")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench-host -compare OLD.json NEW.json")
			os.Exit(2)
		}
		if err := printComparison(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench-host:", err)
			os.Exit(1)
		}
		return
	}

	rep := run()
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-host:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench-host:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
}

func run() report {
	rep := report{
		Schema:    reportSchema,
		GoOS:      runtime.GOOS,
		GoArch:    runtime.GOARCH,
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\tns/op\tB/op\tallocs/op")
	for _, bm := range hostbench.Benchmarks {
		r := testing.Benchmark(bm.F)
		res := result{
			Name:        bm.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Extra = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				res.Extra[k] = v
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
		fmt.Fprintf(w, "%s\t%.0f\t%d\t%d\n", res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		w.Flush()
	}
	return rep
}

func load(path string) (map[string]result, []string, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var rep report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != reportSchema {
		return nil, nil, fmt.Errorf("%s: unexpected schema %q", path, rep.Schema)
	}
	byName := make(map[string]result, len(rep.Benchmarks))
	order := make([]string, 0, len(rep.Benchmarks))
	for _, r := range rep.Benchmarks {
		byName[r.Name] = r
		order = append(order, r.Name)
	}
	return byName, order, nil
}

func printComparison(oldPath, newPath string) error {
	oldBy, order, err := load(oldPath)
	if err != nil {
		return err
	}
	newBy, _, err := load(newPath)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\told ns/op\tnew ns/op\tdelta\told allocs\tnew allocs")
	for _, name := range order {
		o := oldBy[name]
		n, ok := newBy[name]
		if !ok {
			fmt.Fprintf(w, "%s\t%.0f\t-\t-\t%d\t-\n", name, o.NsPerOp, o.AllocsPerOp)
			continue
		}
		delta := "~"
		if o.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(n.NsPerOp-o.NsPerOp)/o.NsPerOp)
		}
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%s\t%d\t%d\n",
			name, o.NsPerOp, n.NsPerOp, delta, o.AllocsPerOp, n.AllocsPerOp)
	}
	return w.Flush()
}
