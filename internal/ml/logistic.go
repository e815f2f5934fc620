package ml

import "math"

// LogisticRegression is a binary logistic-regression classifier trained by
// batch gradient descent with L2 regularization — the "Logistic Regression"
// entry of the paper's top-3 ensemble.
type LogisticRegression struct {
	// LearningRate is the gradient step size (default 0.5).
	LearningRate float64
	// Epochs is the number of full passes (default 400).
	Epochs int
	// L2 is the regularization strength (default 1e-3).
	L2 float64

	weights []float64
	bias    float64
}

var _ Classifier = (*LogisticRegression)(nil)
var _ Prober = (*LogisticRegression)(nil)

// Name implements Classifier.
func (lr *LogisticRegression) Name() string { return "Logistic Regression" }

func (lr *LogisticRegression) defaults() {
	if lr.LearningRate == 0 {
		lr.LearningRate = 0.5
	}
	if lr.Epochs == 0 {
		lr.Epochs = 400
	}
	if lr.L2 == 0 {
		lr.L2 = 1e-3
	}
}

// Train implements Classifier.
func (lr *LogisticRegression) Train(d *Dataset) error {
	if err := validateTrain(d); err != nil {
		return err
	}
	lr.defaults()
	n := d.NumFeatures()
	lr.weights = make([]float64, n)
	lr.bias = 0
	m := float64(d.Len())

	gradW := make([]float64, n)
	for epoch := 0; epoch < lr.Epochs; epoch++ {
		for i := range gradW {
			gradW[i] = 0
		}
		gradB := 0.0
		for _, in := range d.Instances {
			p := lr.Prob(in.Features)
			y := 0.0
			if in.Label {
				y = 1
			}
			err := p - y
			for j, x := range in.Features {
				gradW[j] += err * x
			}
			gradB += err
		}
		for j := range lr.weights {
			lr.weights[j] -= lr.LearningRate * (gradW[j]/m + lr.L2*lr.weights[j])
		}
		lr.bias -= lr.LearningRate * gradB / m
	}
	return nil
}

// Prob implements Prober.
func (lr *LogisticRegression) Prob(features []float64) float64 {
	z := lr.bias
	for j, w := range lr.weights {
		if j < len(features) {
			z += w * features[j]
		}
	}
	return 1 / (1 + math.Exp(-z))
}

// Predict implements Classifier.
func (lr *LogisticRegression) Predict(features []float64) bool {
	return lr.Prob(features) >= 0.5
}

// Weights returns a copy of the trained feature weights (nil before
// training). Positive weights push toward the positive (FP) class — the
// basis of symptom-importance reporting.
func (lr *LogisticRegression) Weights() []float64 {
	return append([]float64(nil), lr.weights...)
}
