// Package models defines the five evaluation workloads of Section VII-A
// as layer graphs: Baidu DeepSpeech2, Google RNN-T (the MLPerf variant),
// Google NMT, AlexNet and ResNet-50. Layer dimensions follow the
// published model architectures; the sim package turns them into host and
// PIM execution times.
package models

import "fmt"

// LayerKind classifies how a layer executes.
type LayerKind int

const (
	Conv      LayerKind = iota // compute-bound dense convolution
	FC                         // fully connected: a GEMV per sample
	LSTM                       // recurrent layer: two GEMVs per step (+ gate math)
	BN                         // batch normalization (elementwise, memory-bound)
	ReLU                       // elementwise activation
	Residual                   // elementwise add (skip connection)
	Attention                  // decoder attention: score GEMV + context combine
	Softmax                    // output softmax (host, elementwise-ish)
)

var kindNames = [...]string{"Conv", "FC", "LSTM", "BN", "ReLU", "Residual", "Attention", "Softmax"}

func (k LayerKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Layer is one layer of a model.
type Layer struct {
	Kind LayerKind
	Name string

	// FC / Attention: output rows M, input columns K.
	M, K int

	// LSTM: input width X, hidden width H, sequence Steps; Bidir doubles
	// the directions. Streaming marks encoder-style layers whose inputs
	// are all available up front, so kernel launches amortize over the
	// sequence (the GNMT encoder-vs-decoder distinction, Section VII-B).
	X, H, Steps int
	Bidir       bool
	Streaming   bool

	// Elementwise: N elements.
	N int

	// Conv: multiply-accumulate count and memory footprint per sample.
	MACs  float64
	Bytes float64
}

// Directions returns 2 for bidirectional LSTM layers, else 1.
func (l Layer) Directions() int {
	if l.Bidir {
		return 2
	}
	return 1
}

// WeightBytes estimates the layer's parameter footprint (FP16).
func (l Layer) WeightBytes() float64 {
	switch l.Kind {
	case FC, Attention:
		return 2 * float64(l.M) * float64(l.K)
	case LSTM:
		per := 4 * float64(l.H) * (float64(l.X) + float64(l.H))
		return 2 * per * float64(l.Directions())
	case Conv:
		return l.Bytes * 0.2 // rough split; convs are activation heavy
	}
	return 0
}

// Model is a named layer sequence.
type Model struct {
	Name   string
	Layers []Layer
}

// Validate checks dimensional sanity.
func (m Model) Validate() error {
	if len(m.Layers) == 0 {
		return fmt.Errorf("models: %s has no layers", m.Name)
	}
	for i, l := range m.Layers {
		switch l.Kind {
		case Conv:
			if l.MACs <= 0 || l.Bytes <= 0 {
				return fmt.Errorf("models: %s layer %d (%s): conv needs MACs and Bytes", m.Name, i, l.Name)
			}
		case FC, Attention:
			if l.M <= 0 || l.K <= 0 {
				return fmt.Errorf("models: %s layer %d (%s): FC needs MxK", m.Name, i, l.Name)
			}
		case LSTM:
			if l.X <= 0 || l.H <= 0 || l.Steps <= 0 {
				return fmt.Errorf("models: %s layer %d (%s): LSTM needs X,H,Steps", m.Name, i, l.Name)
			}
		case BN, ReLU, Residual, Softmax:
			if l.N <= 0 {
				return fmt.Errorf("models: %s layer %d (%s): eltwise needs N", m.Name, i, l.Name)
			}
		}
	}
	return nil
}

// DS2 is Baidu DeepSpeech2: two strided convolutions, six bidirectional
// LSTM layers, and a character-output fully connected layer. Input is the
// linear spectrogram of a 2-second clip (161 bins x 200 frames), 100
// frames after the convolution striding.
func DS2() Model {
	const steps = 100
	layers := []Layer{
		{Kind: Conv, Name: "conv1", MACs: 117e6, Bytes: 1.6e6},
		{Kind: Conv, Name: "conv2", MACs: 970e6, Bytes: 3.1e6},
	}
	// conv output: 32 channels x 41 bins -> 1312 features per frame.
	x := 1312
	for i := 0; i < 6; i++ {
		layers = append(layers, Layer{
			Kind: LSTM, Name: fmt.Sprintf("lstm%d", i+1),
			X: x, H: 1760, Steps: steps, Bidir: true, Streaming: true,
		})
		x = 2 * 1760 // bidirectional concat feeds the next layer
	}
	layers = append(layers,
		Layer{Kind: FC, Name: "fc_out", M: 29, K: 2 * 1760},
		Layer{Kind: Softmax, Name: "softmax", N: 29 * steps},
	)
	return Model{Name: "DS2", Layers: layers}
}

// RNNT is the MLPerf RNN Transducer: a 5-layer LSTM encoder with time
// reduction, a 2-layer LSTM prediction network, and two joint-network
// fully connected layers with ReLU.
func RNNT() Model {
	const (
		encSteps  = 100 // 2 s of 20 ms frames after stacking
		redSteps  = 50  // after 2x time reduction
		outTokens = 20
	)
	layers := []Layer{
		{Kind: LSTM, Name: "enc1", X: 240, H: 1024, Steps: encSteps, Streaming: true},
		{Kind: LSTM, Name: "enc2", X: 1024, H: 1024, Steps: encSteps, Streaming: true},
		{Kind: LSTM, Name: "enc3", X: 2048, H: 1024, Steps: redSteps, Streaming: true},
		{Kind: LSTM, Name: "enc4", X: 1024, H: 1024, Steps: redSteps, Streaming: true},
		{Kind: LSTM, Name: "enc5", X: 1024, H: 1024, Steps: redSteps, Streaming: true},
		{Kind: LSTM, Name: "pred1", X: 320, H: 320, Steps: outTokens},
		{Kind: LSTM, Name: "pred2", X: 320, H: 320, Steps: outTokens},
	}
	layers = append(layers,
		Layer{Kind: FC, Name: "joint_fc1", M: 512, K: 1024 + 320, Steps: outTokens},
		Layer{Kind: ReLU, Name: "joint_relu", N: 512 * outTokens},
		Layer{Kind: FC, Name: "joint_fc2", M: 29, K: 512, Steps: outTokens},
	)
	return Model{Name: "RNN-T", Layers: layers}
}

// GNMT is Google's NMT: 8 encoder LSTMs (first bidirectional), an
// attention module, 8 decoder LSTMs, and the vocabulary projection.
// Sentences of ~50 words on both sides.
func GNMT() Model {
	const (
		srcLen = 50
		dstLen = 50
		hidden = 1024
		vocab  = 32000
	)
	layers := []Layer{
		{Kind: LSTM, Name: "enc1", X: hidden, H: hidden, Steps: srcLen, Bidir: true, Streaming: true},
	}
	for i := 2; i <= 8; i++ {
		x := hidden
		if i == 2 {
			x = 2 * hidden // bidirectional concat
		}
		layers = append(layers, Layer{
			Kind: LSTM, Name: fmt.Sprintf("enc%d", i),
			X: x, H: hidden, Steps: srcLen, Streaming: true,
		})
	}
	for i := 1; i <= 8; i++ {
		x := hidden
		if i == 1 {
			x = 2 * hidden // embedding + attention context
		}
		layers = append(layers, Layer{
			Kind: LSTM, Name: fmt.Sprintf("dec%d", i),
			X: x, H: hidden, Steps: dstLen, // decoder: one kernel call per step
		})
	}
	layers = append(layers,
		Layer{Kind: Attention, Name: "attention", M: srcLen, K: hidden, Steps: dstLen},
		Layer{Kind: FC, Name: "projection", M: vocab, K: hidden, Steps: dstLen},
		Layer{Kind: Softmax, Name: "softmax", N: vocab * dstLen},
	)
	return Model{Name: "GNMT", Layers: layers}
}

// EncoderOnly returns the model restricted to its streaming encoder
// layers (the 6.2x GNMT encoder study, Section VII-B).
func (m Model) EncoderOnly() Model {
	var out []Layer
	for _, l := range m.Layers {
		if l.Kind == LSTM && l.Streaming {
			out = append(out, l)
		}
	}
	return Model{Name: m.Name + "-encoder", Layers: out}
}

// AlexNet: five convolutions and three fully connected layers on a
// 224x224x3 image.
func AlexNet() Model {
	return Model{Name: "AlexNet", Layers: []Layer{
		{Kind: Conv, Name: "conv1", MACs: 105e6, Bytes: 1.3e6},
		{Kind: ReLU, Name: "relu1", N: 290400},
		{Kind: Conv, Name: "conv2", MACs: 224e6, Bytes: 1.4e6},
		{Kind: ReLU, Name: "relu2", N: 186624},
		{Kind: Conv, Name: "conv3", MACs: 150e6, Bytes: 2.2e6},
		{Kind: ReLU, Name: "relu3", N: 64896},
		{Kind: Conv, Name: "conv4", MACs: 112e6, Bytes: 1.8e6},
		{Kind: ReLU, Name: "relu4", N: 64896},
		{Kind: Conv, Name: "conv5", MACs: 75e6, Bytes: 1.2e6},
		{Kind: ReLU, Name: "relu5", N: 43264},
		{Kind: FC, Name: "fc6", M: 4096, K: 9216},
		{Kind: ReLU, Name: "relu6", N: 4096},
		{Kind: FC, Name: "fc7", M: 4096, K: 4096},
		{Kind: ReLU, Name: "relu7", N: 4096},
		{Kind: FC, Name: "fc8", M: 1000, K: 4096},
		{Kind: Softmax, Name: "softmax", N: 1000},
	}}
}

// ResNet50: the stages are modeled as per-block convolution aggregates
// with their batch-norm, ReLU and identity-shortcut elementwise layers —
// the memory-bound band PIM could serve, dominated by compute-bound
// convolutions (the paper's "PIM does not hurt compute-bound apps" case).
func ResNet50() Model {
	layers := []Layer{
		{Kind: Conv, Name: "conv1", MACs: 118e6, Bytes: 3.5e6},
		{Kind: BN, Name: "bn1", N: 802816},
		{Kind: ReLU, Name: "relu1", N: 802816},
	}
	stages := []struct {
		name   string
		blocks int
		macs   float64 // per block
		actN   int     // output activation elements per block
	}{
		{"stage2", 3, 130e6, 802816},
		{"stage3", 4, 120e6, 401408},
		{"stage4", 6, 110e6, 200704},
		{"stage5", 3, 110e6, 100352},
	}
	for _, s := range stages {
		for b := 1; b <= s.blocks; b++ {
			name := fmt.Sprintf("%s_b%d", s.name, b)
			layers = append(layers,
				Layer{Kind: Conv, Name: name + "_convs", MACs: s.macs, Bytes: float64(s.actN) * 6},
				Layer{Kind: BN, Name: name + "_bn", N: s.actN},
				Layer{Kind: Residual, Name: name + "_add", N: s.actN},
				Layer{Kind: ReLU, Name: name + "_relu", N: s.actN},
			)
		}
	}
	layers = append(layers,
		Layer{Kind: FC, Name: "fc", M: 1000, K: 2048},
		Layer{Kind: Softmax, Name: "softmax", N: 1000},
	)
	return Model{Name: "ResNet-50", Layers: layers}
}

// All returns the five evaluation models in the paper's order.
func All() []Model {
	return []Model{DS2(), RNNT(), GNMT(), AlexNet(), ResNet50()}
}
