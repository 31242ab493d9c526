package driver

import (
	"testing"

	"pimsim/internal/hbm"
)

func newDrv(t *testing.T) *Driver {
	t.Helper()
	d, err := New(hbm.PIMHBMConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBootPartitioning(t *testing.T) {
	d := newDrv(t)
	base, limit := d.PIMRows()
	cfg := hbm.PIMHBMConfig(1000)
	if limit != uint32(cfg.Rows-hbm.NumConfRows) {
		t.Errorf("PIM row limit %d, want below the %d conf rows", limit, hbm.NumConfRows)
	}
	if base == 0 || base >= limit {
		t.Errorf("PIM rows [%d, %d): want a nonempty region above the host rows", base, limit)
	}
	if got := d.PIMRowsFree(); got != int(limit-base) {
		t.Errorf("free rows at boot = %d, want %d", got, limit-base)
	}
}

func TestPIMRowAllocator(t *testing.T) {
	d := newDrv(t)
	base, limit := d.PIMRows()
	r1, err := d.AllocPIMRows(4)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != base {
		t.Errorf("first allocation at %d, want %d", r1, base)
	}
	r2, err := d.AllocPIMRows(2)
	if err != nil {
		t.Fatal(err)
	}
	if r2 != base+4 {
		t.Errorf("second allocation at %d", r2)
	}
	// Exhaustion.
	if _, err := d.AllocPIMRows(int(limit-base) + 1); err == nil {
		t.Error("over-allocation accepted")
	}
	for _, r := range []uint32{r1, r2} {
		if err := d.FreePIMRows(r); err != nil {
			t.Fatal(err)
		}
	}
	r3, err := d.AllocPIMRows(1)
	if err != nil {
		t.Fatal(err)
	}
	if r3 != base {
		t.Error("freed rows not reused from the base")
	}
	if _, err := d.AllocPIMRows(0); err == nil {
		t.Error("zero rows accepted")
	}
}

func TestPlainHBMHasNoPIMRows(t *testing.T) {
	d, err := New(hbm.HBM2Config(1000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AllocPIMRows(1); err == nil {
		t.Error("PIM rows allocated on a plain HBM2 system")
	}
	if base, limit := d.PIMRows(); base != limit {
		t.Errorf("plain HBM2 reserves PIM rows [%d, %d); want none", base, limit)
	}
}

// TestPIMRowFreeList exercises the per-span free path the serving layer
// depends on: models are loaded and unloaded repeatedly, so freed spans
// must be reusable, coalesce with their neighbours, and double frees must
// be refused.
func TestPIMRowFreeList(t *testing.T) {
	d := newDrv(t)
	base, limit := d.PIMRows()
	total := int(limit - base)

	a, _ := d.AllocPIMRows(8)
	b, _ := d.AllocPIMRows(8)
	c, _ := d.AllocPIMRows(8)
	if err := d.FreePIMRows(b); err != nil {
		t.Fatal(err)
	}
	// First fit reuses the hole exactly.
	b2, err := d.AllocPIMRows(8)
	if err != nil {
		t.Fatal(err)
	}
	if b2 != b {
		t.Errorf("hole not reused: got row %d, want %d", b2, b)
	}
	// A larger request skips the hole.
	if err := d.FreePIMRows(b2); err != nil {
		t.Fatal(err)
	}
	big, err := d.AllocPIMRows(9)
	if err != nil {
		t.Fatal(err)
	}
	if big != c+8 {
		t.Errorf("9-row span at %d, want %d (past the 8-row hole)", big, c+8)
	}

	// Freeing everything coalesces back to one span starting at base.
	for _, r := range []uint32{a, c, big} {
		if err := d.FreePIMRows(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.PIMRowsFree(); got != total {
		t.Errorf("free rows = %d, want %d", got, total)
	}
	all, err := d.AllocPIMRows(total)
	if err != nil {
		t.Fatalf("full-region allocation after coalescing: %v", err)
	}
	if all != base {
		t.Errorf("coalesced allocation at %d, want %d", all, base)
	}
	if err := d.FreePIMRows(all); err != nil {
		t.Fatal(err)
	}

	// Double free and unknown base are errors, not corruption.
	r, _ := d.AllocPIMRows(4)
	if err := d.FreePIMRows(r); err != nil {
		t.Fatal(err)
	}
	if err := d.FreePIMRows(r); err == nil {
		t.Error("double free accepted")
	}
	if err := d.FreePIMRows(base + 1); err == nil {
		t.Error("free of unknown base accepted")
	}
}

// TestPIMRowLoadUnloadCycles models a serving shard's lifetime: load a
// mix of model-sized spans, unload some, load more, for many cycles.
// The allocator must neither leak rows nor panic on exhaustion.
func TestPIMRowLoadUnloadCycles(t *testing.T) {
	d := newDrv(t)
	base, limit := d.PIMRows()
	total := int(limit - base)

	sizes := []int{16, 64, 7, 128, 3}
	for cycle := 0; cycle < 200; cycle++ {
		var live []uint32
		for _, n := range sizes {
			r, err := d.AllocPIMRows(n)
			if err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
			live = append(live, r)
		}
		// Unload in a scrambled order to fragment the free list.
		for _, i := range []int{3, 0, 4, 1, 2} {
			if err := d.FreePIMRows(live[i]); err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
		}
		if got := d.PIMRowsFree(); got != total {
			t.Fatalf("cycle %d leaked rows: %d free, want %d", cycle, got, total)
		}
	}

	// Exhaustion under live allocations returns a clear error.
	held, err := d.AllocPIMRows(total - 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AllocPIMRows(11); err == nil {
		t.Error("over-allocation accepted with 10 rows free")
	}
	if _, err := d.AllocPIMRows(10); err != nil {
		t.Errorf("exact-fit tail allocation failed: %v", err)
	}
	_ = held
}
