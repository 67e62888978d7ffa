package telemetry

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"bftfast/internal/obs"
)

// TestFlightRoundTrip writes a recorder's ring with WriteDump and reads it
// back with obs.ReadTrace — the BFTTRC01 dump / decode pair bft-trace
// relies on.
func TestFlightRoundTrip(t *testing.T) {
	rec := obs.NewRecorder(3, 64)
	for i := int64(1); i <= 5; i++ {
		rec.Record(time.Duration(i)*time.Millisecond, obs.EvExecuted, i, 0, 0)
	}
	path := filepath.Join(t.TempDir(), "flight.bfttrc")
	if err := WriteDump(path, rec.Events(nil)); err != nil {
		t.Fatalf("WriteDump: %v", err)
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatalf("opening dump: %v", err)
	}
	defer file.Close()
	events, err := obs.ReadTrace(file)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(events) != 5 {
		t.Fatalf("round-trip returned %d events, want 5", len(events))
	}
	for i, e := range events {
		want := obs.Event{At: time.Duration(i+1) * time.Millisecond,
			Seq: int64(i + 1), Node: 3, Kind: obs.EvExecuted}
		if e != want {
			t.Errorf("event %d = %+v, want %+v", i, e, want)
		}
	}
}

func TestFlightDumpEmptyRing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.bfttrc")
	if err := WriteDump(path, nil); err != nil {
		t.Fatalf("WriteDump of empty ring: %v", err)
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatalf("opening dump: %v", err)
	}
	defer file.Close()
	events, err := obs.ReadTrace(file)
	if err != nil {
		t.Fatalf("empty dump not decodable: %v", err)
	}
	if len(events) != 0 {
		t.Errorf("empty ring decoded to %d events", len(events))
	}
}

func TestWriteDumpLeavesNoTempOnSuccess(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.bfttrc")
	if err := WriteDump(path, []obs.Event{{Kind: obs.EvExecuted, Seq: 1}}); err != nil {
		t.Fatalf("WriteDump: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: %v", err)
	}
}
