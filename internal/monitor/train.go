package monitor

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/artifact"
	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/nn"
)

// TrainConfig configures ML monitor training. Zero values select the paper's
// setup: Adam with learning rate 0.001, sparse categorical cross-entropy
// (plus the semantic term for Custom monitors), MLP 256-128 or stacked LSTM
// 128-64 over 6 steps.
type TrainConfig struct {
	Arch Arch
	// Semantic trains the "Custom" variant with the Eq (2) loss.
	Semantic bool
	// SemanticWeight is w in Eq (2) (default 0.5).
	SemanticWeight float64
	// Epochs over the training set. The default is 15, matching the
	// cmd/apstrain default and experiments.Default() — one number
	// everywhere (the paper preset raises it via experiments.Paper()).
	Epochs int
	// BatchSize for minibatch SGD (default 256).
	BatchSize int
	// LR is the Adam learning rate (default 0.001, the paper's default).
	LR float64
	// Hidden1/Hidden2 override the architecture width (0 = paper sizes).
	Hidden1, Hidden2 int
	// AdversarialEps enables adversarial training (the defense baseline the
	// paper's §V contrasts with the semantic loss): every minibatch is
	// augmented with FGSM examples of this ε crafted against the current
	// model. Zero disables.
	AdversarialEps float64
	// Seed drives weight init and batch shuffling.
	Seed int64
	// Workers caps the data-parallel fan-out inside training: the minibatch
	// pipeline overlaps batch gather with compute, and nn.Trainer splits
	// every batch into fixed row blocks run across this many goroutines
	// (clamped by the shared sweep budget). <= 0 selects all cores; 1 runs
	// fully serial. Trained weights are byte-identical at every setting, so
	// Workers is excluded from Fingerprint.
	Workers int // fp:ignore scheduling knob, trained weights are byte-identical at every worker count
}

// FormatVersion identifies the Save/Load encoding of trained monitors.
// Bump it whenever the serialization, the architectures, or the training
// procedure changes incompatibly — cached monitors from older versions
// then become unreachable and are retrained.
//
// Version 2: the block-parallel trainer (nn.Trainer) normalizes loss
// gradients per fixed 32-row block and reduces them in block order, and the
// LSTM backward now accumulates multi-step parameter gradients in place;
// both change trained weights relative to the v1 whole-batch path
// (bit-level, not statistically).
//
// Version 3: every training nonlinearity (LSTM gates and cell, Tanh and
// Sigmoid layers, the softmax of the losses) runs the mat slab functions
// Exp, Sigmoid and Tanh instead of math.Exp and math.Tanh, whose amd64
// results depend on whether the CPU has FMA. Trained weights are now the
// same on every host, and differ in bits from version 2.
const FormatVersion = 3

// Fingerprint hashes the canonicalized training configuration (after
// defaults are filled). Knobs that cannot affect the trained weights are
// normalized out — SemanticWeight only enters the loss when Semantic is
// set, so changing it must not invalidate cached non-semantic monitors,
// and Workers is excluded entirely because the trainer's fixed-block
// reduction makes weights byte-identical at every parallelism setting.
// It identifies only the recipe; artifact keys for trained monitors must
// also mix in a fingerprint of the training data.
func (c TrainConfig) Fingerprint() uint64 {
	c.fill()
	if !c.Semantic {
		c.SemanticWeight = 0
	}
	return artifact.Fingerprint("train", c.Arch, c.Semantic, c.SemanticWeight, c.Epochs,
		c.BatchSize, c.LR, c.Hidden1, c.Hidden2, c.AdversarialEps, c.Seed)
}

func (c *TrainConfig) fill() {
	if c.SemanticWeight == 0 {
		c.SemanticWeight = 0.5
	}
	if c.Epochs == 0 {
		c.Epochs = 15
	}
	if c.BatchSize == 0 {
		c.BatchSize = 256
	}
	if c.LR == 0 {
		c.LR = 0.001
	}
}

// Train fits an ML monitor on the training split. The split must carry
// fitted normalizers (i.e. come from Dataset.Split).
func Train(train *dataset.Dataset, cfg TrainConfig) (*MLMonitor, error) {
	cfg.fill()
	if train.Len() == 0 {
		return nil, fmt.Errorf("monitor: empty training set")
	}
	if train.MLPNorm == nil || train.SeqNorm == nil {
		return nil, fmt.Errorf("monitor: training set has no fitted normalizers (use Dataset.Split)")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var loss nn.Loss = nn.CrossEntropy{}
	if cfg.Semantic {
		loss = nn.SemanticLoss{Weight: cfg.SemanticWeight, UnsafeClass: 1}
	}

	var (
		model *nn.Model
		x     *mat.Matrix
		norm  *dataset.Normalizer
		err   error
	)
	switch cfg.Arch {
	case ArchMLP:
		x, err = train.MLPMatrix()
		if err != nil {
			return nil, err
		}
		norm = train.MLPNorm
		model, err = nn.NewMLPClassifier(rng, dataset.MLPFeatureCount, nn.MLPConfig{
			Hidden1: cfg.Hidden1, Hidden2: cfg.Hidden2, Loss: loss,
		})
	case ArchLSTM:
		x, err = train.SeqMatrix()
		if err != nil {
			return nil, err
		}
		norm = train.SeqNorm
		model, err = nn.NewLSTMClassifier(rng, dataset.SeqFeatureCount, nn.LSTMConfig{
			Hidden1: cfg.Hidden1, Hidden2: cfg.Hidden2, Steps: train.Window, Loss: loss,
		})
	default:
		return nil, fmt.Errorf("monitor: unknown architecture %d", int(cfg.Arch))
	}
	if err != nil {
		return nil, fmt.Errorf("monitor: build model: %w", err)
	}

	labels := train.Labels()
	knowledge := train.Knowledge()
	if err := fitMinibatch(model, x, labels, knowledge, cfg, rng); err != nil {
		return nil, err
	}
	return &MLMonitor{
		arch:     cfg.Arch,
		custom:   cfg.Semantic,
		model:    model,
		norm:     norm,
		window:   train.Window,
		seqFeats: dataset.SeqFeatureCount,
	}, nil
}

// minibatch is one gathered training batch. The x matrix is a fixed-size
// backing buffer; rows tells how many leading rows are valid (only the
// final batch of an epoch is short).
type minibatch struct {
	x      *mat.Matrix
	labels []int
	know   []float64
	rows   int
	epoch  int
}

// fitMinibatch runs minibatch SGD over the training matrix. The hot path is
// a double-buffered pipeline: a producer goroutine owns the shuffle RNG and
// gathers batch k+1 into one of two rotating buffers while the consumer
// trains on batch k through nn.Trainer's block-parallel step. Batch
// contents and order are a pure function of the seed — never of pipeline
// timing — and the trainer reduces gradients in fixed block order, so
// trained weights are byte-identical to the fully serial path (Workers=1),
// which skips the pipeline entirely.
func fitMinibatch(model *nn.Model, x *mat.Matrix, labels []int, knowledge []float64, cfg TrainConfig, rng *rand.Rand) error {
	n := x.Rows()
	opt := nn.NewAdam(cfg.LR)
	trainer := nn.NewTrainer(model, opt, cfg.Workers)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	maxB := min(cfg.BatchSize, n)
	newBuf := func() *minibatch {
		return &minibatch{
			x:      mat.New(maxB, x.Cols()),
			labels: make([]int, maxB),
			know:   make([]float64, maxB),
		}
	}
	gather := func(dst *minibatch, from, to, epoch int) {
		bsz := to - from
		dst.rows, dst.epoch = bsz, epoch
		for bi := 0; bi < bsz; bi++ {
			src := idx[from+bi]
			copy(dst.x.Row(bi), x.Row(src))
			dst.labels[bi] = labels[src]
			dst.know[bi] = knowledge[src]
		}
	}
	trainOne := func(b *minibatch) error {
		bx, err := b.x.RowsView(0, b.rows)
		if err != nil {
			return err
		}
		bl, bk := b.labels[:b.rows], b.know[:b.rows]
		if _, err := trainer.Step(bx, bl, bk); err != nil {
			return fmt.Errorf("monitor: train epoch %d: %w", b.epoch, err)
		}
		if cfg.AdversarialEps > 0 {
			// The inner step of adversarial training: attack the current
			// model state with the same loss surface being optimized.
			adv, err := attack.FGSMWithKnowledge(model, bx, bl, bk, cfg.AdversarialEps)
			if err != nil {
				return fmt.Errorf("monitor: adversarial batch epoch %d: %w", b.epoch, err)
			}
			if _, err := trainer.Step(adv, bl, bk); err != nil {
				return fmt.Errorf("monitor: adversarial train epoch %d: %w", b.epoch, err)
			}
		}
		return nil
	}

	if cfg.Workers == 1 {
		// Fully serial reference path: gather and train on one goroutine.
		buf := newBuf()
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
			for from := 0; from < n; from += cfg.BatchSize {
				gather(buf, from, min(from+cfg.BatchSize, n), epoch)
				if err := trainOne(buf); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// Double-buffered pipeline: two batch buffers rotate through a free
	// list; the producer owns idx and rng (so the shuffle sequence is
	// identical to the serial path) and fills the next buffer while the
	// consumer trains on the current one.
	free := make(chan *minibatch, 2)
	free <- newBuf()
	free <- newBuf()
	work := make(chan *minibatch, 2)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	//apslint:allow budgetguard single producer goroutine overlapping batch gather with training compute; it adds pipelining, not parallel compute, so it is not budget-charged
	go func() {
		defer wg.Done()
		defer close(work)
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
			for from := 0; from < n; from += cfg.BatchSize {
				var buf *minibatch
				select {
				case buf = <-free:
				case <-done:
					return
				}
				gather(buf, from, min(from+cfg.BatchSize, n), epoch)
				select {
				case work <- buf:
				case <-done:
					return
				}
			}
		}
	}()
	var trainErr error
	for buf := range work {
		if trainErr == nil {
			trainErr = trainOne(buf)
			if trainErr != nil {
				close(done) // unblock the producer; drain the rest
			}
		}
		free <- buf
	}
	wg.Wait()
	return trainErr
}
