package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "re-record this package's golden files from the current tree")

// TestDumpGolden holds the deterministic metrics dump of a recorder with
// several meta keys, set out of order, to the bytes recorded in
// testdata/dump_golden.json, recorded while Dump still sorted its keys
// with sort.Strings.
func TestDumpGolden(t *testing.T) {
	r := sampleRecorder()
	for _, kv := range [][2]string{{"workers", "4"}, {"paradigm", "workflow"}, {"scale", "10"}, {"faults", "0"}, {"nodes", "1"}} {
		r.SetMeta(kv[0], kv[1])
	}
	var got bytes.Buffer
	if err := r.WriteMetrics(&got, false); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "dump_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("metrics dump changed:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
