// Package modelio persists trained selectivity models: a database system
// trains in the optimizer's maintenance window and ships the model to
// every node that plans queries, so models need a stable interchange
// format. The format is a JSON envelope {version, type, payload}; all
// model types of this repository round-trip losslessly (float64 values are
// encoded in full precision).
package modelio

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/gmm"
	"repro/internal/hist"
	"repro/internal/ptshist"
)

// Version is the current envelope version.
const Version = 1

// Typed load failures. A serving layer maps these to client errors (the
// uploaded bytes are bad) as opposed to transport or I/O faults:
//
//	ErrMalformed      — the bytes are not a JSON envelope
//	ErrUnknownVersion — envelope version this build does not speak
//	ErrUnknownType    — model type tag this build does not know
//	ErrInvalidModel   — well-formed envelope, structurally invalid model
//
// Match with errors.Is.
var (
	ErrMalformed      = errors.New("modelio: malformed envelope")
	ErrUnknownVersion = errors.New("modelio: unknown envelope version")
	ErrUnknownType    = errors.New("modelio: unknown model type")
	ErrInvalidModel   = errors.New("modelio: invalid model")
)

type envelope struct {
	Version int             `json:"version"`
	Type    string          `json:"type"`
	Payload json.RawMessage `json:"payload"`
}

// boxFamilies names each hist.Model family in saved files: its envelope
// type and its binary snapshot tag.
var boxFamilies = [...]struct {
	name string
	tag  int
}{
	hist.QuadHist: {"quadhist", tagQuadhist},
	hist.QuickSel: {"quicksel", tagQuicksel},
	hist.Isomer:   {"isomer", tagIsomer},
}

// boxFamily returns the family whose boxFamilies entry satisfies match.
func boxFamily(match func(name string, tag int) bool) (hist.Family, bool) {
	for f, e := range boxFamilies {
		if match(e.name, e.tag) {
			return hist.Family(f), true
		}
	}
	return 0, false
}

// TypeName maps a concrete model type to its envelope tag; ok is false
// for types this package cannot save.
func TypeName(m core.Model) (name string, ok bool) {
	name, _, ok = kindOf(m)
	return name, ok
}

// kindOf returns a model's envelope type and binary snapshot tag; ok is
// false for types this package cannot save.
func kindOf(m core.Model) (name string, tag int, ok bool) {
	switch t := m.(type) {
	case *hist.Model:
		if int(t.Family) < len(boxFamilies) {
			e := boxFamilies[t.Family]
			return e.name, e.tag, true
		}
	case *ptshist.Model:
		return "ptshist", tagPtshist, true
	case *gmm.Model:
		return "gaussmix", tagGaussmix, true
	}
	return "", 0, false
}

// Save writes the model to w. Only the concrete model types of this
// repository are supported.
func Save(w io.Writer, m core.Model) error {
	name, ok := TypeName(m)
	if !ok {
		return fmt.Errorf("modelio: unsupported model type %T", m)
	}
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("modelio: encode payload: %w", err)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(envelope{Version: Version, Type: name, Payload: payload})
}

// Load reads a model written by Save.
func Load(r io.Reader) (core.Model, error) {
	var env envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrMalformed, err)
	}
	if env.Version != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrUnknownVersion, env.Version, Version)
	}
	var m core.Model
	switch env.Type {
	case "ptshist":
		m = &ptshist.Model{}
	case "gaussmix":
		m = &gmm.Model{}
	default:
		f, ok := boxFamily(func(name string, _ int) bool { return name == env.Type })
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownType, env.Type)
		}
		m = &hist.Model{Family: f}
	}
	if err := json.Unmarshal(env.Payload, m); err != nil {
		return nil, fmt.Errorf("%w: decode %s payload: %v", ErrMalformed, env.Type, err)
	}
	if err := validate(m); err != nil {
		return nil, err
	}
	return m, nil
}

// cornerSlack is how far a bucket corner may lie outside the unit cube:
// QuickSel's sub-boxes can overshoot their parent box by an ulp.
const cornerSlack = 1e-9

// validate performs structural sanity checks so a corrupted file fails at
// load time rather than at estimation time: every weight, corner, point and
// mean is finite, bucket corners are not inverted and lie in the unit cube,
// every bucket's volume is zero or has a finite inverse, and the weights
// form a distribution.
func validate(m core.Model) error {
	checkWeights := func(n int, w []float64) error {
		if len(w) != n {
			return fmt.Errorf("%w: %d buckets but %d weights", ErrInvalidModel, n, len(w))
		}
		if err := checkFinite("weight", w); err != nil {
			return err
		}
		sum := 0.0
		for _, v := range w {
			if v < -1e-9 {
				return fmt.Errorf("%w: negative weight %v", ErrInvalidModel, v)
			}
			sum += v
		}
		if n > 0 && (sum < 0.99 || sum > 1.01) {
			return fmt.Errorf("%w: weights sum to %v", ErrInvalidModel, sum)
		}
		return nil
	}
	switch t := m.(type) {
	case *hist.Model:
		for _, b := range t.Buckets {
			if len(b.Lo) == 0 || len(b.Lo) != len(t.Buckets[0].Lo) || len(b.Hi) != len(b.Lo) {
				return fmt.Errorf("%w: bucket corners of zero or mixed dimension", ErrInvalidModel)
			}
			if err := checkFinite("bucket corner", b.Lo); err != nil {
				return err
			}
			if err := checkFinite("bucket corner", b.Hi); err != nil {
				return err
			}
			for i := range b.Lo {
				if b.Lo[i] > b.Hi[i] {
					return fmt.Errorf("%w: inverted bucket %v", ErrInvalidModel, b)
				}
				if b.Lo[i] < -cornerSlack || b.Hi[i] > 1+cornerSlack {
					return fmt.Errorf("%w: bucket %v outside the unit cube", ErrInvalidModel, b)
				}
			}
			// The estimator scales by the inverse volume: an infinite one
			// turns 0·Inf into NaN.
			if v := b.Volume(); v > 0 && math.IsInf(1/v, 1) {
				return fmt.Errorf("%w: bucket %v has volume %v, too small to invert", ErrInvalidModel, b, v)
			}
		}
		return checkWeights(len(t.Buckets), t.Weights)
	case *ptshist.Model:
		for _, p := range t.Points {
			if len(p) != len(t.Points[0]) {
				return fmt.Errorf("%w: points of mixed dimension", ErrInvalidModel)
			}
			if err := checkFinite("point", p); err != nil {
				return err
			}
		}
		return checkWeights(len(t.Points), t.Weights)
	case *gmm.Model:
		if err := checkWeights(len(t.Components), t.Weights); err != nil {
			return err
		}
		for _, c := range t.Components {
			if len(c.Mean) != len(t.Components[0].Mean) {
				return fmt.Errorf("%w: component means of mixed dimension", ErrInvalidModel)
			}
			if err := checkFinite("component mean", c.Mean); err != nil {
				return err
			}
			if !(c.Sigma > 0) || math.IsInf(c.Sigma, 1) {
				return fmt.Errorf("%w: non-positive or infinite component sigma %v", ErrInvalidModel, c.Sigma)
			}
		}
		return nil
	}
	return nil
}

// checkFinite rejects NaN and ±Inf values.
func checkFinite(what string, vs []float64) error {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite %s %v", ErrInvalidModel, what, v)
		}
	}
	return nil
}
