package main

import "testing"

func TestAllocIsZeroedAndWritable(t *testing.T) {
	var mem arena
	defer mem.free()
	rs, err := alloc[result](&mem, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1000 {
		t.Fatalf("len %d, want 1000", len(rs))
	}
	for i := range rs {
		if rs[i] != (result{}) {
			t.Fatalf("entry %d not zeroed: %+v", i, rs[i])
		}
		rs[i].probes = uint64(i)
	}
	if rs[999].probes != 999 {
		t.Fatalf("write lost: %d", rs[999].probes)
	}
}

// TestResetPeakRSS checks that the reset brings the peak down to the
// current RSS, and that touching new memory raises it again.
func TestResetPeakRSS(t *testing.T) {
	var mem arena
	defer mem.free()
	if _, err := alloc[byte](&mem, 32<<20); err != nil {
		t.Fatal(err)
	}
	if err := mem.free(); err != nil {
		t.Fatal(err)
	}
	base, err := resetPeakRSS()
	if err != nil {
		t.Skipf("peak RSS cannot be reset here: %v", err)
	}
	rss, err := procStatusKiB("VmRSS")
	if err != nil {
		t.Fatal(err)
	}
	if base > rss+1024 {
		t.Fatalf("peak %d KiB after reset, RSS %d KiB", base, rss)
	}
	if _, err := alloc[byte](&mem, 16<<20); err != nil {
		t.Fatal(err)
	}
	peak, err := procStatusKiB("VmHWM")
	if err != nil {
		t.Fatal(err)
	}
	if peak < base+15<<10 {
		t.Fatalf("peak %d KiB after touching 16 MiB over a base of %d KiB", peak, base)
	}
}
