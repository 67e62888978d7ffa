// Command e2e is the repository's end-to-end benchmark: an in-process
// 4-replica group started through the public bft facade, driven over real
// loopback UDP sockets (and once over in-process channels) by seeded
// workloads, with every reply checked. See ../README.md for what each
// workload and metric means and how the bounds were set.
//
// One workload, as the benchmark driver runs it (last stdout line is JSON):
//
//	bash benchmarks/run.sh --workload rtt-udp --seed 1 --seconds 15 --trace 0
//
// Every workload, untraced then traced, with the per-layer CPU budget:
//
//	bash benchmarks/run.sh -seed 1
//
// Repeat the untraced pass and check the run-to-run spread against the
// bounds, keep the numbers, and compare two such files:
//
//	bash benchmarks/run.sh -seed 1 -repeat 5 -check -json new.json
//	bash benchmarks/run.sh -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"text/tabwriter"
)

func main() {
	fs := flag.NewFlagSet("e2e", flag.ExitOnError)
	name := fs.String("workload", "", "run only this workload and end with the driver's one-line JSON result")
	seed := fs.Int64("seed", 1, "seed for keys, key choice, read/write draw and op-shape draw")
	seconds := fs.Int("seconds", 15, "measured window per workload, after a 2 s warm-up")
	trace := fs.Int("trace", 0, "with -workload: 1 runs the traced pass and reports the per-layer metrics")
	repeat := fs.Int("repeat", 1, "without -workload: run the untraced pass this many times (seed, seed+1, ...) and report the spread; skips the traced pass when above 1")
	check := fs.Bool("check", false, "with -repeat: exit 1 if any end-to-end spread exceeds its bound")
	compare := fs.Bool("compare", false, "compare two -json files: e2e -compare OLD.json NEW.json")
	jsonOut := fs.String("json", "", "write the end-to-end values of every run to this file, for -compare")
	_ = fs.Parse(os.Args[1:])

	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			err = errors.New("usage: e2e -compare OLD.json NEW.json")
			break
		}
		err = compareFiles(fs.Arg(0), fs.Arg(1))
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace == 1)
	default:
		err = runAll(*seed, *seconds, *repeat, *check, *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("incorrect output")

func printHeader(seed int64, seconds int) {
	fmt.Printf("bftfast end-to-end benchmark: n=%d replicas in one process, GOMAXPROCS=%d, %s, seed %d, %d s window after %s warm-up\n",
		nReplicas, runtime.GOMAXPROCS(0), runtime.Version(), seed, seconds, standardPlan(seconds).warmup)
	fmt.Println("message delay injected: none (loopback / in-process), so latency is processor and system-call time only")
}

// runOne is the driver's entry: one workload, one pass, one JSON line.
func runOne(name string, seed int64, seconds int, traced bool) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	printHeader(seed, seconds)
	o, err := pass(w, seed, seconds, traced)
	if err != nil {
		return err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	printOutcome(o, defs)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, make(map[string]value)}
	for _, d := range defs {
		line.Metrics[d.Name] = value{o.Metrics[d.Name], d.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	if !o.Correct {
		return errIncorrect
	}
	return nil
}

// pass runs one workload once. A traced pass has the shims and the CPU
// profile on, measures the hostbench call costs first, and writes its span
// file.
func pass(w workload, seed int64, seconds int, traced bool) (outcome, error) {
	if traced {
		testing.Init()
		if err := flag.Set("test.benchtime", "100ms"); err != nil {
			return outcome{}, err
		}
		runMicrobenchmarks()
	}
	m, err := runWorkload(w, seed, standardPlan(seconds), traced)
	if err != nil {
		return outcome{}, err
	}
	if traced {
		if m.profileErr != nil {
			fmt.Printf("cpu profile unavailable (%v): the *.cpu_us_per_op rows read 0\n", m.profileErr)
		}
		dir, err := spanDir()
		if err != nil {
			return outcome{}, err
		}
		path, err := m.writeTrace(dir)
		if err != nil {
			return outcome{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans of the first %s of the window written to %s\n", spanWindow, path)
	}
	return m.summarize(), nil
}

// spanDir is where span files go: benchmarks/out in the checkout run.sh built
// the binary into (<checkout>/.bench_build/e2e).
func spanDir() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("locating the checkout: %w", err)
	}
	return filepath.Join(filepath.Dir(filepath.Dir(exe)), "benchmarks", "out"), nil
}

func printOutcome(o outcome, defs []metricDef) {
	pass := "untraced"
	if o.Traced {
		pass = "traced"
	}
	fmt.Printf("\n%s (%s pass): %d operations attempted in %.2f s, %d failed, correct=%t\n",
		o.Workload, pass, o.Attempted, o.Seconds, o.Failed, o.Correct)
	fmt.Printf("  %d latency samples; the highest percentile with at least 10 samples beyond it is p%g = %.1f us\n",
		o.Samples, o.TopPct, o.TopPctUS)
	for _, p := range o.Problems {
		fmt.Println("  INVALID:", p)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	for _, d := range defs {
		fmt.Fprintf(tw, "  %s\t%.4f\t%s\n", d.Name, o.Metrics[d.Name], d.Unit)
	}
	tw.Flush()
	if o.Traced {
		printBudget(o)
	}
}

// printBudget prints the per-layer CPU budget: one row per layer, summing to
// the traced pass's measured CPU per operation.
func printBudget(o outcome) {
	total := o.Metrics["trace.cpu_us_per_op"]
	fmt.Printf("  CPU budget of %s, us per operation (profile share x measured CPU per operation):\n", o.Workload)
	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', tabwriter.AlignRight)
	var sum float64
	for _, l := range layers {
		v := o.Metrics[cpuMetric(l)]
		sum += v
		share := 0.0
		if total > 0 {
			share = 100 * v / total
		}
		fmt.Fprintf(tw, "    %s\t%.2f\t%.1f %%\t\n", l, v, share)
	}
	fmt.Fprintf(tw, "    sum\t%.2f\tmeasured %.2f\t\n", sum, total)
	tw.Flush()
}

// runFile is what -json writes and -compare reads: every run's end-to-end
// values, per workload and metric.
type runFile struct {
	Seed      int64                           `json:"seed"`
	Seconds   int                             `json:"seconds"`
	GoMaxProc int                             `json:"gomaxprocs"`
	Values    map[string]map[string][]float64 `json:"values"`
}

// runAll is the whole benchmark in one command: every workload untraced
// (repeat times), then, on a single repeat, every workload traced.
func runAll(seed int64, seconds, repeat int, check bool, jsonOut string) error {
	printHeader(seed, seconds)
	file := runFile{Seed: seed, Seconds: seconds, GoMaxProc: runtime.GOMAXPROCS(0), Values: make(map[string]map[string][]float64)}
	incorrect := false
	for _, w := range workloads {
		file.Values[w.name] = make(map[string][]float64)
		for r := 0; r < repeat; r++ {
			o, err := pass(w, seed+int64(r), seconds, false)
			if err != nil {
				return err
			}
			printOutcome(o, endToEnd)
			incorrect = incorrect || !o.Correct
			for _, d := range endToEnd {
				file.Values[w.name][d.Name] = append(file.Values[w.name][d.Name], o.Metrics[d.Name])
			}
		}
	}
	if jsonOut != "" {
		buf, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	if repeat > 1 {
		wide := printSpreads(file)
		if incorrect {
			return errIncorrect
		}
		if check && wide > 0 {
			return fmt.Errorf("%d end-to-end spreads exceed their bounds", wide)
		}
		return nil
	}
	for _, w := range workloads {
		o, err := pass(w, seed, seconds, true)
		if err != nil {
			return err
		}
		printOutcome(o, perLayer)
		incorrect = incorrect || !o.Correct
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// printSpreads prints each end-to-end metric's median, quartiles and
// relative spread per workload and returns how many exceed their bound.
// setup_s is printed but not counted, as in the driver's own acceptance rule:
// a 2 ms set-up has a wide relative spread, and its bound applies to medians.
func printSpreads(file runFile) int {
	fmt.Printf("\nspread over %d runs: (q3 - q1) / median, quartiles as Python's statistics.quantiles(n=4)\n", len(file.Values[workloads[0].name][endToEnd[0].Name]))
	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tspread\tbound\t")
	wide := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			v := file.Values[w.name][d.Name]
			q1, q2, q3 := quartiles(v)
			s := spread(v)
			verdict := ""
			if s > d.Bound && d.Name != "setup_s" {
				verdict = "EXCEEDS"
				wide++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%.4f\t%.4f\t%.2f\t%s\n", w.name, d.Name, q2, q1, q3, s, d.Bound, verdict)
		}
	}
	tw.Flush()
	return wide
}

func loadRunFile(path string) (runFile, error) {
	var f runFile
	buf, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(buf, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// verdict classifies a change of median from before to after for one metric:
// unresolved when either side's spread is wider than the bound, worse or
// better when the median moved by more than the bound, within-bound else.
func verdict(d metricDef, before, after []float64) (delta float64, v string) {
	mo, mn := median(before), median(after)
	if mo != 0 {
		delta = (mn - mo) / mo
	}
	worse := delta
	if d.Better == "higher" {
		worse = -delta
	}
	switch {
	case spread(before) > d.Bound || spread(after) > d.Bound:
		return delta, "unresolved"
	case worse > d.Bound:
		return delta, "worse"
	case worse < -d.Bound:
		return delta, "better"
	}
	return delta, "within-bound"
}

// compareFiles prints one row per workload and end-to-end metric and fails
// on any "worse".
func compareFiles(oldPath, newPath string) error {
	oldF, err := loadRunFile(oldPath)
	if err != nil {
		return err
	}
	newF, err := loadRunFile(newPath)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(oldF.Values))
	for name := range oldF.Values {
		if _, ok := newF.Values[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median\tnew median\tdelta\tbound\tverdict\t")
	worse := 0
	for _, name := range names {
		for _, d := range endToEnd {
			ov, nv := oldF.Values[name][d.Name], newF.Values[name][d.Name]
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			delta, v := verdict(d, ov, nv)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%+.1f %%\t%.0f %%\t%s\t\n", name, d.Name, median(ov), median(nv), 100*delta, 100*d.Bound, v)
		}
	}
	tw.Flush()
	if worse > 0 {
		return fmt.Errorf("%d metrics worse than their bound", worse)
	}
	return nil
}

// writeManifest writes BENCHMARK.json from the tables the program reports
// from.
func writeManifest(out io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerMetric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []wl          `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmarks/run.sh"},
		Paths:      []string{"benchmarks"},
		RunSeconds: manifestSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerMetric{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(m)
}

// manifestSeconds is the window the driver measures each run for.
const manifestSeconds = 15
