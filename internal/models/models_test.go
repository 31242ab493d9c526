package models

import "testing"

func TestAllModelsValidate(t *testing.T) {
	ms := All()
	if len(ms) != 5 {
		t.Fatalf("got %d models, want the paper's 5", len(ms))
	}
	for _, m := range ms {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestDS2Structure(t *testing.T) {
	m := DS2()
	convs, lstms, fcs := 0, 0, 0
	for _, l := range m.Layers {
		switch l.Kind {
		case Conv:
			convs++
		case LSTM:
			lstms++
			if !l.Bidir || !l.Streaming {
				t.Errorf("%s: DS2 LSTMs are bidirectional and streaming", l.Name)
			}
			if l.H != 1760 {
				t.Errorf("%s: hidden %d, want 1760", l.Name, l.H)
			}
		case FC:
			fcs++
		}
	}
	// Paper: 2 convolutions, 6 bidirectional LSTMs, 1 FC.
	if convs != 2 || lstms != 6 || fcs != 1 {
		t.Errorf("DS2 structure: %d convs, %d lstms, %d fcs", convs, lstms, fcs)
	}
	// Later layers consume the bidirectional concat.
	if m.Layers[3].X != 2*1760 {
		t.Errorf("lstm2 input %d, want 3520", m.Layers[3].X)
	}
}

func TestRNNTStructure(t *testing.T) {
	m := RNNT()
	enc, pred, fcs := 0, 0, 0
	for _, l := range m.Layers {
		switch {
		case l.Kind == LSTM && l.Streaming:
			enc++
		case l.Kind == LSTM:
			pred++
			if l.H != 320 {
				t.Errorf("%s: prediction hidden %d, want 320", l.Name, l.H)
			}
		case l.Kind == FC:
			fcs++
		}
	}
	// Paper: 5 encoder LSTMs, 2 prediction LSTMs, 2 joint FCs.
	if enc != 5 || pred != 2 || fcs != 2 {
		t.Errorf("RNN-T structure: %d enc, %d pred, %d fc", enc, pred, fcs)
	}
}

func TestGNMTStructure(t *testing.T) {
	m := GNMT()
	encs, decs := 0, 0
	hasAttention, hasProjection := false, false
	for _, l := range m.Layers {
		switch {
		case l.Kind == LSTM && l.Streaming:
			encs++
		case l.Kind == LSTM:
			decs++
			if l.Steps <= 1 {
				t.Errorf("%s: decoder must run per step", l.Name)
			}
		case l.Kind == Attention:
			hasAttention = true
		case l.Kind == FC && l.M == 32000:
			hasProjection = true
			if l.Steps != 50 {
				t.Errorf("projection steps %d, want one per output token", l.Steps)
			}
		}
	}
	// Paper: 8 encoders (first bidirectional), 8 decoders, attention.
	if encs != 8 || decs != 8 || !hasAttention || !hasProjection {
		t.Errorf("GNMT structure: enc=%d dec=%d attn=%v proj=%v", encs, decs, hasAttention, hasProjection)
	}
	if !m.Layers[0].Bidir {
		t.Error("first encoder layer is bidirectional")
	}
}

func TestEncoderOnly(t *testing.T) {
	enc := GNMT().EncoderOnly()
	if len(enc.Layers) != 8 {
		t.Fatalf("encoder-only has %d layers, want 8", len(enc.Layers))
	}
	for _, l := range enc.Layers {
		if l.Kind != LSTM || !l.Streaming {
			t.Errorf("%s leaked into the encoder view", l.Name)
		}
	}
}

func TestAlexNetStructure(t *testing.T) {
	m := AlexNet()
	convs, fcs := 0, 0
	var convMACs float64
	for _, l := range m.Layers {
		switch l.Kind {
		case Conv:
			convs++
			convMACs += l.MACs
		case FC:
			fcs++
		}
	}
	if convs != 5 || fcs != 3 {
		t.Errorf("AlexNet: %d convs, %d fcs", convs, fcs)
	}
	// ~666M MACs in the convolutions (the canonical count).
	if convMACs < 0.5e9 || convMACs > 0.9e9 {
		t.Errorf("conv MACs = %g", convMACs)
	}
	// FC6 dominates the weights.
	var fc6 Layer
	for _, l := range m.Layers {
		if l.Name == "fc6" {
			fc6 = l
		}
	}
	if fc6.M != 4096 || fc6.K != 9216 {
		t.Errorf("fc6 = %dx%d", fc6.M, fc6.K)
	}
	if fc6.WeightBytes() != 2*4096*9216 {
		t.Errorf("fc6 weights = %g", fc6.WeightBytes())
	}
}

func TestResNet50Structure(t *testing.T) {
	m := ResNet50()
	var convMACs float64
	blocks := 0
	for _, l := range m.Layers {
		if l.Kind == Conv {
			convMACs += l.MACs
		}
		if l.Kind == Residual {
			blocks++
		}
	}
	// ~2 GMACs (4 GFLOPs) total, 16 residual blocks.
	if convMACs < 1.5e9 || convMACs > 2.5e9 {
		t.Errorf("ResNet-50 conv MACs = %g, want ~2e9", convMACs)
	}
	if blocks != 16 {
		t.Errorf("residual blocks = %d, want 16", blocks)
	}
	// Nothing in ResNet-50 should be a PIM-offloadable FC except the tiny
	// classifier (weights below any reasonable LLC threshold).
	for _, l := range m.Layers {
		if l.Kind == FC && l.WeightBytes() > 8<<20 {
			t.Errorf("%s: unexpectedly large FC", l.Name)
		}
	}
}

func TestValidateCatchesBadLayers(t *testing.T) {
	bad := []Model{
		{Name: "empty"},
		{Name: "conv", Layers: []Layer{{Kind: Conv, Name: "c"}}},
		{Name: "fc", Layers: []Layer{{Kind: FC, Name: "f", M: 0, K: 8}}},
		{Name: "lstm", Layers: []Layer{{Kind: LSTM, Name: "l", X: 8, H: 8}}},
		{Name: "elt", Layers: []Layer{{Kind: ReLU, Name: "r"}}},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("%s validated", m.Name)
		}
	}
}

func TestDirectionsAndWeights(t *testing.T) {
	l := Layer{Kind: LSTM, X: 100, H: 200, Steps: 10, Bidir: true}
	if l.Directions() != 2 {
		t.Error("bidir directions")
	}
	// 4H x (X+H) per direction, FP16.
	want := 2.0 * 4 * 200 * (100 + 200) * 2
	if got := l.WeightBytes(); got != want {
		t.Errorf("LSTM weights = %g, want %g", got, want)
	}
}
