package host

import "testing"

func TestGemvMemoryBoundAtBatch1(t *testing.T) {
	p := Default()
	c, err := p.Gemv(4096, 8192, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 64 MiB of weights at 8% of 1.23 TB/s ~ 680 us; compute is ~5 us.
	if c.NS < 100e3 {
		t.Errorf("GEMV3 time %.0f ns, expected memory-bound (> 100 us)", c.NS)
	}
	if c.LLCMissRate < 0.95 {
		t.Errorf("batch-1 miss rate %.2f, want ~1 (Fig. 10)", c.LLCMissRate)
	}
	if c.Flops != 2*4096*8192 {
		t.Errorf("flops %v", c.Flops)
	}
}

func TestGemvBatchingReducesMissAndTime(t *testing.T) {
	p := Default()
	var prevPerSample float64
	var prevMiss float64 = 2
	for _, b := range []int{1, 2, 4} {
		c, err := p.Gemv(4096, 8192, b)
		if err != nil {
			t.Fatal(err)
		}
		perSample := c.NS / float64(b)
		if prevPerSample != 0 && perSample >= prevPerSample {
			t.Errorf("batch %d per-sample time %.0f did not improve on %.0f", b, perSample, prevPerSample)
		}
		if c.LLCMissRate >= prevMiss {
			t.Errorf("batch %d miss %.2f did not drop from %.2f", b, c.LLCMissRate, prevMiss)
		}
		prevPerSample, prevMiss = perSample, c.LLCMissRate
	}
	// Fig. 10: miss rate lands at 70-80% for batch 4.
	c, _ := p.Gemv(4096, 8192, 4)
	if c.LLCMissRate < 0.65 || c.LLCMissRate > 0.85 {
		t.Errorf("batch-4 miss rate %.2f, want 0.70-0.80", c.LLCMissRate)
	}
}

func TestLLCResidentGemvIsFast(t *testing.T) {
	p := Default()
	small, err := p.Gemv(512, 512, 1) // 512 KiB of weights: LLC resident
	if err != nil {
		t.Fatal(err)
	}
	if small.LLCMissRate > 0.1 {
		t.Errorf("resident miss rate %.2f", small.LLCMissRate)
	}
	big, _ := p.Gemv(4096, 4096, 1)
	if small.NS >= big.NS {
		t.Error("LLC-resident GEMV not faster than DRAM-resident")
	}
}

func TestEltwiseStreams(t *testing.T) {
	p := Default()
	c, err := p.Eltwise(8<<20, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.DRAMBytes != 3*2*8<<20 {
		t.Errorf("bytes %v", c.DRAMBytes)
	}
	// Batch scales traffic linearly; no reuse appears.
	c4, _ := p.Eltwise(8<<20, 4, 3)
	if c4.LLCMissRate != c.LLCMissRate {
		t.Error("streaming miss rate changed with batch")
	}
	if c4.DRAMBytes != 4*c.DRAMBytes {
		t.Error("streaming traffic not linear in batch")
	}
}

func TestConvComputeBound(t *testing.T) {
	p := Default()
	// ResNet-scale conv: 4 GFLOP, 50 MB.
	c, err := p.Conv(4e9, 50e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	compOnly := p.compNs(4e9, convEfficiency(1))
	if c.NS < compOnly {
		t.Error("conv faster than its compute bound")
	}
	// Batching restores conv utilization: per-sample time drops.
	c4, err := p.Conv(4e9, 50e6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c4.NS/4 >= c.NS {
		t.Error("batched conv not faster per sample")
	}
}

func TestWithMemoryScales(t *testing.T) {
	p := Default()
	p4 := p.WithMemory(4)
	c1, _ := p.Eltwise(16<<20, 1, 3)
	c4, _ := p4.Eltwise(16<<20, 1, 3)
	sp := c1.NS / c4.NS
	if sp < 2.5 || sp > 4.1 {
		t.Errorf("4x memory sped a streaming kernel by %.2f, want ~4 minus launch overhead", sp)
	}
}

func TestInvalidArgs(t *testing.T) {
	p := Default()
	if _, err := p.Gemv(0, 8, 1); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := p.Eltwise(8, 0, 3); err == nil {
		t.Error("zero batch accepted")
	}
	if _, err := p.Conv(0, 10, 1); err == nil {
		t.Error("zero flops accepted")
	}
}

func TestGemvBatchInterpolation(t *testing.T) {
	p := Default()
	// Batch 3 sits between 2 and 4; large batches clamp at the batch-4
	// efficiency, so per-sample time keeps improving monotonically.
	var prev float64
	for _, b := range []int{2, 3, 4, 8} {
		c, err := p.Gemv(4096, 4096, b)
		if err != nil {
			t.Fatal(err)
		}
		per := c.NS / float64(b)
		if prev != 0 && per >= prev {
			t.Errorf("batch %d per-sample %.0f ns did not improve on %.0f", b, per, prev)
		}
		prev = per
	}
}

func TestLSTMGemvBeatsGenericGemv(t *testing.T) {
	p := Default()
	g, err := p.Gemv(7040, 3520, 1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := p.LSTMGemv(7040, 3520, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Persistent-RNN kernels stream far better than the generic GEMV path
	// (the DS2-vs-raw-GEMV reconciliation).
	if l.NS*1.5 > g.NS {
		t.Errorf("LSTM kernel %.0f ns vs generic %.0f ns: expected a clear library advantage", l.NS, g.NS)
	}
}
