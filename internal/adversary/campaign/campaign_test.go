package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"bftfast/bft"
	"bftfast/internal/adversary"
	"bftfast/internal/bench"
	"bftfast/internal/obs"
)

// campaignSeed returns the campaign seed, honoring the BFT_CHAOS_SEED
// override so a failure line like "seed=7" is reproducible with
// BFT_CHAOS_SEED=7 go test -run TestCampaign ./internal/adversary/campaign.
func campaignSeed(t *testing.T) int64 {
	t.Helper()
	if v := os.Getenv("BFT_CHAOS_SEED"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad BFT_CHAOS_SEED %q: %v", v, err)
		}
		return seed
	}
	return 1
}

// TestSafetyRunPerBehavior exercises each behavior's safety scenario in
// isolation so a violation names its behavior directly.
func TestSafetyRunPerBehavior(t *testing.T) {
	seed := campaignSeed(t)
	for _, b := range adversary.Behaviors {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			rep := safetyRun(b, seed)
			t.Logf("seed=%d behavior=%s ops=%d frontier=%d agreeing=%d attacks=%+v",
				seed, b, rep.Ops, rep.Frontier, rep.Agreeing, rep.Attacks)
			fired := map[adversary.Behavior]int64{
				adversary.EquivocatePrimary: rep.Attacks.Equivocations,
				adversary.FloodGarbage:      rep.Attacks.GarbageSent + rep.Attacks.StaleReplays,
				adversary.SpamViewChange:    rep.Attacks.ViewChangesSpammed,
				adversary.DelayReorder:      rep.Attacks.Delayed,
				adversary.ForgeCommitRefs:   rep.Attacks.RefsForged,
				adversary.WithholdCarriers:  rep.Attacks.CarriersWithheld,
				adversary.SlowPrimary:       rep.Attacks.Delayed,
				adversary.Censor:            rep.Attacks.Censored,
				// CorruptTransfer only bites when a replica falls behind and
				// fetches; the core-level test forces that path.
				adversary.CorruptTransfer: 1,
			}
			if fired[b] == 0 {
				t.Fatalf("seed=%d: behavior %s never attacked: %+v", seed, b, rep.Attacks)
			}
			if rep.Violation != "" {
				t.Fatalf("seed=%d: safety violated: %s", seed, rep.Violation)
			}
			if !rep.Completed {
				t.Fatalf("seed=%d: scripted clients did not complete", seed)
			}
			if rep.Ops == 0 {
				t.Fatalf("seed=%d: no operations recorded", seed)
			}
			if rep.Agreeing < 2 {
				t.Fatalf("seed=%d: only %d correct replicas agree at frontier %d", seed, rep.Agreeing, rep.Frontier)
			}
		})
	}
}

// TestDumpFlight checks the failure artifact path: failing rows dump
// their traces as decodable BFTTRC01 files, passing rows dump nothing.
func TestDumpFlight(t *testing.T) {
	res := &Result{Rows: []Row{
		{Behavior: "flood_garbage", Factor: 0.1, MinFactor: 0.3, // fails the floor
			Safety: SafetyReport{Completed: true, Agreeing: 3},
			Events: []obs.Event{{Kind: obs.EvExecuted, Seq: 1}, {Kind: obs.EvExecuted, Seq: 2}}},
		{Behavior: "delay_reorder", Factor: 0.9, MinFactor: 0.2, // passes
			Safety: SafetyReport{Completed: true, Agreeing: 3},
			Events: []obs.Event{{Kind: obs.EvExecuted, Seq: 3}}},
	}}
	dir := t.TempDir()
	paths, err := res.DumpFlight(dir)
	if err != nil {
		t.Fatalf("DumpFlight: %v", err)
	}
	if len(paths) != 1 || filepath.Base(paths[0]) != "flight-flood_garbage.bfttrc" {
		t.Fatalf("paths = %v, want one dump for the failing row", paths)
	}
	f, err := os.Open(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatalf("dump not decodable: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("decoded %d events, want 2", len(events))
	}
}

// TestCampaign runs the full sweep at reduced scale and applies the
// campaign's own acceptance assertions.
func TestCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign sweep is not short")
	}
	seed := campaignSeed(t)
	res := Run(Params{Seed: seed, Scale: 0.25, Clients: 8})
	for _, tab := range res.Tables() {
		var buf bytes.Buffer
		tab.Print(&buf)
		t.Logf("seed=%d\n%s", seed, buf.String())
	}
	if err := res.Check(); err != nil {
		// A failing assertion leaves its attacked-run trace behind as a
		// flight dump (bft-trace -decode) when an artifact dir is set.
		if dir := os.Getenv("BFT_CAMPAIGN_OUT"); dir != "" {
			if paths, derr := res.DumpFlight(dir); derr != nil {
				t.Logf("seed=%d: flight dump failed: %v", seed, derr)
			} else {
				t.Logf("seed=%d: flight dumps: %v", seed, paths)
			}
		}
		t.Fatalf("seed=%d: %v", seed, err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatalf("seed=%d: encoding summary: %v", seed, err)
	}
	// CI artifact hook: `make test-adversary` sets BFT_CAMPAIGN_OUT to a
	// directory and uploads the human summary plus the machine-readable
	// per-behavior breakdown it writes there.
	if dir := os.Getenv("BFT_CAMPAIGN_OUT"); dir != "" {
		var txt bytes.Buffer
		for _, tab := range res.Tables() {
			tab.Print(&txt)
			txt.WriteByte('\n')
		}
		if err := os.WriteFile(filepath.Join(dir, "campaign_summary.txt"), txt.Bytes(), 0o644); err != nil {
			t.Fatalf("writing summary artifact: %v", err)
		}
		if err := os.WriteFile(filepath.Join(dir, "campaign.json"), buf.Bytes(), 0o644); err != nil {
			t.Fatalf("writing JSON artifact: %v", err)
		}
	}
}

// TestCensorDeposedAtHostWindow runs the censor row with the batching
// window and commit piggybacking hosts run (bft.DefaultConfig), read from
// that config so the two cannot drift apart. With W = 1 the assignment
// deadline's full-window guard looks at a single slot above execution,
// which a loaded primary fills far more often than eight; the censored
// client must still be served once the censor is deposed.
func TestCensorDeposedAtHostWindow(t *testing.T) {
	host := bft.DefaultConfig(4, 0)
	for _, clients := range []int{8, 32} {
		t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
			seed := campaignSeed(t)
			base := livenessParams(Params{Seed: seed, Scale: 0.25, Clients: clients})
			base.Window = host.Window
			base.Opts.PiggybackCommits = host.Opts.PiggybackCommits
			row := attack(adversary.Censor, base, bench.RunMicro(base).Throughput)
			t.Logf("seed=%d window=%d clients=%d factor=%.2f (attacked %.0f vs baseline %.0f ops/s) starved=%d",
				seed, base.Window, clients, row.Factor, row.Attacked, row.Baseline, row.Starved)
			if row.Starved != 0 {
				t.Errorf("seed=%d: %d load clients completed no operation in the measurement window", seed, row.Starved)
			}
			if row.Factor < row.MinFactor {
				t.Errorf("seed=%d: throughput factor %.2f below floor %.2f", seed, row.Factor, row.MinFactor)
			}
		})
	}
}
