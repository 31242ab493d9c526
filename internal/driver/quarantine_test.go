package driver

import "testing"

func TestQuarantineCarvesFreeList(t *testing.T) {
	d := newDrv(t)
	base, limit := d.PIMRows()
	total := int(limit - base)

	if err := d.QuarantinePIMRows(base+1, 1); err != nil {
		t.Fatal(err)
	}
	if got := d.PIMRowsQuarantined(); got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}
	if got := d.PIMRowsFree(); got != total-1 {
		t.Fatalf("free = %d, want %d", got, total-1)
	}

	// First-fit must skip the hole: one row still fits before it, but a
	// multi-row span lands after it.
	one, err := d.AllocPIMRows(1)
	if err != nil || one != base {
		t.Fatalf("AllocPIMRows(1) = %d, %v; want %d", one, err, base)
	}
	span, err := d.AllocPIMRows(4)
	if err != nil || span != base+2 {
		t.Fatalf("AllocPIMRows(4) = %d, %v; want %d", span, err, base+2)
	}
}

func TestQuarantineRejectsLiveAndForeignRows(t *testing.T) {
	d := newDrv(t)
	base, limit := d.PIMRows()
	rows, err := d.AllocPIMRows(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.QuarantinePIMRows(rows+2, 1); err == nil {
		t.Fatal("quarantined a live row")
	}
	if err := d.QuarantinePIMRows(limit+10, 1); err == nil {
		t.Fatal("quarantined a row outside the PIM region")
	}
	if err := d.QuarantinePIMRows(base, 0); err == nil {
		t.Fatal("accepted a zero-length quarantine")
	}
	// After freeing, the same row is quarantinable.
	if err := d.FreePIMRows(rows); err != nil {
		t.Fatal(err)
	}
	if err := d.QuarantinePIMRows(rows+2, 1); err != nil {
		t.Fatal(err)
	}
}
