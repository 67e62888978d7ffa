package bench

import (
	"fmt"
	"io"
	"time"
)

// ResultSizes is the paper's x-axis for Figures 2 and 5 (bytes).
var ResultSizes = []int{0, 1024, 2048, 4096, 6144, 8192}

// ArgSizes is the paper's x-axis for Figures 3 and 7 (bytes).
var ArgSizes = []int{8, 1024, 2048, 4096, 6144, 8192}

// ClientCounts is the x-axis for the throughput figures. The paper sweeps
// 1-200 client processes.
var ClientCounts = []int{1, 5, 10, 15, 20, 50, 100, 200}

// Table is a printable experiment result: a header plus rows.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Print renders the table in aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		for i, cell := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], cell)
		}
		fmt.Fprintln(w)
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	fmt.Fprintln(w)
}

// FigureNames lists the simulator figures WriteFigure knows, in the order
// `bft-bench -figure all` prints them.
var FigureNames = []string{"2", "3", "4", "5", "6", "7", "tentative", "piggyback", "ablation"}

// WriteFigure runs the named simulator figure and prints its tables to w.
// clients is the x-axis of the throughput sweeps and scale shrinks the
// measurement windows. It reports false, printing nothing, for a name
// not in FigureNames.
func WriteFigure(w io.Writer, name string, clients []int, scale float64) bool {
	var tables []*Table
	switch name {
	case "2":
		tables = []*Table{Figure2(scale)}
	case "3":
		tables = []*Table{Figure3(scale)}
	case "4":
		for _, op := range []string{"0/0", "0/4", "4/0"} {
			tables = append(tables, Figure4(op, clients, scale))
		}
	case "5":
		lat, thr := Figure5(clients, scale)
		tables = []*Table{lat, thr}
	case "6":
		tables = []*Table{Figure6(clients, scale)}
	case "7":
		lat, thr := Figure7(clients, scale)
		tables = []*Table{lat, thr}
	case "tentative":
		tables = []*Table{TentativeExecution(scale)}
	case "piggyback":
		tables = []*Table{PiggybackCommit(scale)}
	case "ablation":
		tables = []*Table{AblationWindow(50, scale), AblationCheckpointInterval(50, scale), AblationInlineThreshold(scale)}
	default:
		return false
	}
	for _, t := range tables {
		t.Print(w)
	}
	return true
}

func ms(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()*1e3) }
func ratio(a, b time.Duration) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(a)/float64(b))
}

// scaleWindows shortens warmup/measure for quick runs.
func scaleWindows(p *MicroParams, scale float64) {
	if scale <= 0 || scale == 1 {
		return
	}
	p.Warmup = time.Duration(float64(p.Warmup) * scale)
	p.Measure = time.Duration(float64(p.Measure) * scale)
}

// Figure2 measures latency (and slowdown vs NO-REP) as the result size
// grows, for read-write and read-only operations, with an 8-byte argument
// and f=1 — the paper's Figure 2. scale < 1 shrinks measurement windows
// for quick runs.
func Figure2(scale float64) *Table {
	t := &Table{
		Title:  "Figure 2: latency vs result size (arg 8 B, f=1)",
		Header: []string{"result_B", "norep_ms", "bft_rw_ms", "bft_ro_ms", "slow_rw", "slow_ro", "rw_p50_ms", "rw_p99_ms"},
	}
	for _, size := range ResultSizes {
		base := DefaultMicroParams()
		scaleWindows(&base, scale)
		base.ResBytes = size

		nr := base
		nr.Replicas = 0
		norep := RunMicro(nr).Latency

		rwRes := RunMicro(base)
		rw := rwRes.Latency

		ro := base
		ro.ReadOnly = true
		rol := RunMicro(ro).Latency

		t.Rows = append(t.Rows, []string{
			fmt.Sprint(size), ms(norep), ms(rw), ms(rol), ratio(rw, norep), ratio(rol, norep),
			ms(rwRes.P50), ms(rwRes.P99),
		})
	}
	return t
}

// Figure3 compares latency with f=1 (4 replicas) and f=2 (7 replicas) as
// the argument size grows — the paper's Figure 3.
func Figure3(scale float64) *Table {
	t := &Table{
		Title:  "Figure 3: latency, f=2 (7 replicas) vs f=1 (4 replicas)",
		Header: []string{"arg_B", "rw_f1_ms", "rw_f2_ms", "ro_f1_ms", "ro_f2_ms", "slow_rw", "slow_ro"},
	}
	for _, size := range ArgSizes {
		base := DefaultMicroParams()
		scaleWindows(&base, scale)
		base.ArgBytes = size

		rwF1 := RunMicro(base).Latency
		f2 := base
		f2.Replicas = 7
		rwF2 := RunMicro(f2).Latency

		ro := base
		ro.ReadOnly = true
		roF1 := RunMicro(ro).Latency
		roF2 := ro
		roF2.Replicas = 7
		roF2l := RunMicro(roF2).Latency

		t.Rows = append(t.Rows, []string{
			fmt.Sprint(size), ms(rwF1), ms(rwF2), ms(roF1), ms(roF2l),
			ratio(rwF2, rwF1), ratio(roF2l, roF1),
		})
	}
	return t
}

// throughputSweep measures ops/s as the client count grows for one
// configuration variant.
func throughputSweep(base MicroParams, clients []int) []MicroResult {
	out := make([]MicroResult, len(clients))
	for i, c := range clients {
		p := base
		p.Clients = c
		p.Seed = int64(i + 1)
		out[i] = RunMicro(p)
	}
	return out
}

// Figure4 measures throughput vs number of clients for operations 0/0,
// 0/4 and 4/0 (argument/result sizes in KB), for BFT read-write, BFT
// read-only and NO-REP — the paper's Figure 4. NO-REP loses requests under
// load (reported in the lost column), which is why the paper's graph has
// no NO-REP points past 15 clients for 4/0.
func Figure4(op string, clients []int, scale float64) *Table {
	var argB, resB int
	switch op {
	case "0/0":
	case "0/4":
		resB = 4096
	case "4/0":
		argB = 4096
	default:
		panic(fmt.Sprintf("bench: unknown operation %q", op))
	}
	base := DefaultMicroParams()
	scaleWindows(&base, scale)
	base.ArgBytes, base.ResBytes = argB, resB
	if base.ArgBytes < 8 {
		base.ArgBytes = 8
	}

	rw := throughputSweep(base, clients)
	roP := base
	roP.ReadOnly = true
	ro := throughputSweep(roP, clients)
	nrP := base
	nrP.Replicas = 0
	nr := throughputSweep(nrP, clients)

	t := &Table{
		Title:  fmt.Sprintf("Figure 4: throughput vs clients, operation %s", op),
		Header: []string{"clients", "bft_rw_ops", "bft_ro_ops", "norep_ops", "norep_lost", "rw_p50_ms", "rw_p99_ms"},
	}
	for i, c := range clients {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(c),
			fmt.Sprintf("%.0f", rw[i].Throughput),
			fmt.Sprintf("%.0f", ro[i].Throughput),
			fmt.Sprintf("%.0f", nr[i].Throughput),
			fmt.Sprint(nr[i].Lost),
			ms(rw[i].P50),
			ms(rw[i].P99),
		})
	}
	return t
}

// Figure5 evaluates the digest-replies optimization: latency vs result
// size and 0/4 throughput for BFT vs BFT-NDR (no digest replies) — the
// paper's Figure 5.
func Figure5(clients []int, scale float64) (latency, throughput *Table) {
	latency = &Table{
		Title:  "Figure 5a: digest replies, latency vs result size",
		Header: []string{"result_B", "bft_rw_ms", "ndr_rw_ms", "bft_ro_ms", "ndr_ro_ms"},
	}
	for _, size := range ResultSizes {
		base := DefaultMicroParams()
		scaleWindows(&base, scale)
		base.ResBytes = size
		ndr := base
		ndr.Opts.DigestReplies = false

		rw := RunMicro(base).Latency
		ndrRW := RunMicro(ndr).Latency
		ro := base
		ro.ReadOnly = true
		rol := RunMicro(ro).Latency
		ndrRO := ndr
		ndrRO.ReadOnly = true
		ndrROl := RunMicro(ndrRO).Latency

		latency.Rows = append(latency.Rows, []string{
			fmt.Sprint(size), ms(rw), ms(ndrRW), ms(rol), ms(ndrROl),
		})
	}

	base := DefaultMicroParams()
	scaleWindows(&base, scale)
	base.ResBytes = 4096
	ndr := base
	ndr.Opts.DigestReplies = false
	with := throughputSweep(base, clients)
	without := throughputSweep(ndr, clients)
	throughput = &Table{
		Title:  "Figure 5b: digest replies, throughput for operation 0/4",
		Header: []string{"clients", "bft_ops", "bft_ndr_ops"},
	}
	for i, c := range clients {
		throughput.Rows = append(throughput.Rows, []string{
			fmt.Sprint(c),
			fmt.Sprintf("%.0f", with[i].Throughput),
			fmt.Sprintf("%.0f", without[i].Throughput),
		})
	}
	return latency, throughput
}

// Figure6 evaluates request batching: throughput for read-write operation
// 0/0 with and without batching — the paper's Figure 6.
func Figure6(clients []int, scale float64) *Table {
	base := DefaultMicroParams()
	scaleWindows(&base, scale)
	nb := base
	nb.Opts.Batching = false
	with := throughputSweep(base, clients)
	without := throughputSweep(nb, clients)
	t := &Table{
		Title:  "Figure 6: request batching, throughput for operation 0/0",
		Header: []string{"clients", "batching_ops", "no_batching_ops"},
	}
	for i, c := range clients {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(c),
			fmt.Sprintf("%.0f", with[i].Throughput),
			fmt.Sprintf("%.0f", without[i].Throughput),
		})
	}
	return t
}

// Figure7 evaluates separate request transmission: latency vs argument
// size and 4/0 throughput with and without SRT — the paper's Figure 7.
func Figure7(clients []int, scale float64) (latency, throughput *Table) {
	latency = &Table{
		Title:  "Figure 7a: separate request transmission, latency vs argument size",
		Header: []string{"arg_B", "srt_ms", "no_srt_ms"},
	}
	for _, size := range ArgSizes {
		base := DefaultMicroParams()
		scaleWindows(&base, scale)
		base.ArgBytes = size
		ns := base
		ns.Opts.SeparateRequests = false
		latency.Rows = append(latency.Rows, []string{
			fmt.Sprint(size), ms(RunMicro(base).Latency), ms(RunMicro(ns).Latency),
		})
	}

	base := DefaultMicroParams()
	scaleWindows(&base, scale)
	base.ArgBytes = 4096
	ns := base
	ns.Opts.SeparateRequests = false
	with := throughputSweep(base, clients)
	without := throughputSweep(ns, clients)
	throughput = &Table{
		Title:  "Figure 7b: separate request transmission, throughput for operation 4/0",
		Header: []string{"clients", "srt_ops", "no_srt_ops"},
	}
	for i, c := range clients {
		throughput.Rows = append(throughput.Rows, []string{
			fmt.Sprint(c),
			fmt.Sprintf("%.0f", with[i].Throughput),
			fmt.Sprintf("%.0f", without[i].Throughput),
		})
	}
	return latency, throughput
}

// TentativeExecution measures the latency effect of tentative execution at
// small sizes (§4.4 reports up to 27% reduction, shrinking with size).
func TentativeExecution(scale float64) *Table {
	t := &Table{
		Title:  "§4.4: tentative execution latency impact",
		Header: []string{"result_B", "tentative_ms", "no_tentative_ms", "reduction"},
	}
	for _, size := range []int{0, 1024, 4096, 8192} {
		base := DefaultMicroParams()
		scaleWindows(&base, scale)
		base.ResBytes = size
		nt := base
		nt.Opts.TentativeExecution = false
		with := RunMicro(base).Latency
		without := RunMicro(nt).Latency
		red := "-"
		if without > 0 {
			red = fmt.Sprintf("%.0f%%", 100*(1-float64(with)/float64(without)))
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(size), ms(with), ms(without), red})
	}
	return t
}

// PiggybackCommit measures the throughput effect of piggybacking commits
// at low and high client counts (§4.4: +33% at 5 clients, +3% at 200).
func PiggybackCommit(scale float64) *Table {
	t := &Table{
		Title:  "§4.4: piggybacked commits, throughput for operation 0/0",
		Header: []string{"clients", "piggyback_ops", "standalone_ops", "gain"},
	}
	for _, c := range []int{5, 50, 200} {
		base := DefaultMicroParams()
		scaleWindows(&base, scale)
		base.Clients = c
		pb := base
		pb.Opts.PiggybackCommits = true
		with := RunMicro(pb).Throughput
		without := RunMicro(base).Throughput
		gain := "-"
		if without > 0 {
			gain = fmt.Sprintf("%+.0f%%", 100*(with/without-1))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(c), fmt.Sprintf("%.0f", with), fmt.Sprintf("%.0f", without), gain,
		})
	}
	return t
}
