package experiments

import "testing"

func TestAblationTorchPin(t *testing.T) {
	rows, err := AblationTorchPin(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	pinned, unpinned := rows[0].Seconds, rows[1].Seconds
	if unpinned >= pinned {
		t.Fatalf("removing the torch pin should help: pinned=%v unpinned=%v", pinned, unpinned)
	}
	// The pin is a major mechanism: unpinning should cut a large chunk
	// of the script's GOTTA time.
	if (pinned-unpinned)/pinned < 0.3 {
		t.Fatalf("pin accounts for only %.0f%%, expected a dominant effect", 100*(pinned-unpinned)/pinned)
	}
}

func TestAblationObjectStore(t *testing.T) {
	rows, err := AblationObjectStore(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	base, slow, free := rows[0].Seconds, rows[1].Seconds, rows[2].Seconds
	if slow <= base {
		t.Fatalf("a slower store should hurt: base=%v slow=%v", base, slow)
	}
	if free >= base {
		t.Fatalf("a near-free store should help: base=%v free=%v", base, free)
	}
}

func TestAblationSerde(t *testing.T) {
	rows, err := AblationSerde(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	slow, base, free := rows[0].Seconds, rows[1].Seconds, rows[2].Seconds
	// Pipelining overlaps the per-edge serde across stages, so even a
	// 10x slowdown shows up damped — but it must still be a clearly
	// visible hit (>25%).
	if (slow-base)/base < 0.25 {
		t.Fatalf("10x slower serde should visibly hurt a data-heavy chain: slow=%v base=%v", slow, base)
	}
	if free > base {
		t.Fatalf("free serde cannot be slower than baseline: free=%v base=%v", free, base)
	}
}

func TestAblationBatching(t *testing.T) {
	rows, err := AblationBatching(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	auto, whole := rows[0].Seconds, rows[1].Seconds
	if whole <= auto {
		t.Fatalf("whole-table batching should destroy pipelining: auto=%v whole=%v", auto, whole)
	}
}

func TestAutoTuneDICE(t *testing.T) {
	out, err := AutoTuneDICE(quick)
	if err != nil {
		t.Fatal(err)
	}
	if out.TunedSeconds >= out.BaselineSeconds {
		t.Fatalf("tuning did not help: %v vs %v", out.TunedSeconds, out.BaselineSeconds)
	}
	if out.CoresUsed > 16 {
		t.Fatalf("budget exceeded: %d", out.CoresUsed)
	}
	if len(out.Rows) == 0 {
		t.Fatal("no operator recommendations")
	}
	grew := false
	for _, r := range out.Rows {
		if r.Workers < 1 {
			t.Fatalf("operator %s got %d workers", r.Operator, r.Workers)
		}
		if r.Workers > 1 {
			grew = true
		}
	}
	if !grew {
		t.Fatal("tuner never scaled any operator out")
	}
}
