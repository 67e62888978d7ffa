package bench

import "fmt"

// AblationWindow sweeps the primary's sliding-window size W (the paper's
// batching bound): too small starves the pipeline under load, too large
// only adds memory. Run at 0/0 with many clients.
func AblationWindow(clients int, scale float64) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Ablation: sliding window size W (0/0, %d clients)", clients),
		Header: []string{"window", "ops_per_s", "latency_ms"},
	}
	for _, w := range []int64{1, 2, 4, 8, 16, 32} {
		p := DefaultMicroParams()
		scaleWindows(&p, scale)
		p.Clients = clients
		p.Window = w
		r := RunMicro(p)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(w), fmt.Sprintf("%.0f", r.Throughput), ms(r.Latency),
		})
	}
	return t
}

// AblationCheckpointInterval sweeps K, the checkpoint period: frequent
// checkpoints add digest and garbage-collection work; rare ones grow the
// log and the batches a rollback replays.
func AblationCheckpointInterval(clients int, scale float64) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Ablation: checkpoint interval K (0/0, %d clients)", clients),
		Header: []string{"interval", "ops_per_s", "latency_ms"},
	}
	for _, k := range []int64{16, 32, 64, 128, 256} {
		p := DefaultMicroParams()
		scaleWindows(&p, scale)
		p.Clients = clients
		p.CheckpointInterval = k
		r := RunMicro(p)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k), fmt.Sprintf("%.0f", r.Throughput), ms(r.Latency),
		})
	}
	return t
}

// AblationInlineThreshold sweeps the separate-request-transmission cutoff
// (the paper used 255 bytes) at a request size near the decision boundary.
func AblationInlineThreshold(scale float64) *Table {
	t := &Table{
		Title:  "Ablation: inline threshold for separate request transmission (1 KB args)",
		Header: []string{"threshold_B", "latency_ms", "mode"},
	}
	for _, thr := range []int{64, 255, 2048, 1 << 20} {
		p := DefaultMicroParams()
		scaleWindows(&p, scale)
		p.ArgBytes = 1024
		p.InlineThreshold = thr
		r := RunMicro(p)
		mode := "separate"
		if thr >= 2048 {
			mode = "inline"
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(thr), ms(r.Latency), mode})
	}
	return t
}
