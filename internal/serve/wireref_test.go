package serve

import "repro/internal/geom"

// The encoding/json request types the handlers decoded before the
// hand-written codec (wire.go) replaced them. They stay as the reference:
// the property tests marshal requests from them, and the fuzz oracles
// (fuzz_test.go) decode bodies into them with json.Decoder and
// DisallowUnknownFields, as the handlers did.

// wireQuery is one geometric query in any of the three classes of the
// repository's workloads. Exactly one of the class-specific field groups
// must be present: lo+hi (box), a+b (halfspace), center+radius (ball).
type wireQuery struct {
	Lo     []float64 `json:"lo,omitempty"`
	Hi     []float64 `json:"hi,omitempty"`
	A      []float64 `json:"a,omitempty"`
	B      *float64  `json:"b,omitempty"`
	Center []float64 `json:"center,omitempty"`
	Radius *float64  `json:"radius,omitempty"`
}

func (q wireQuery) toRange() (geom.Range, error) {
	switch {
	case q.Lo != nil || q.Hi != nil:
		if len(q.Lo) == 0 || len(q.Lo) != len(q.Hi) {
			return nil, errBoxDims
		}
		return geom.NewBox(geom.Point(q.Lo), geom.Point(q.Hi)), nil
	case q.A != nil || q.B != nil:
		if len(q.A) == 0 || q.B == nil {
			return nil, errHalfspaceAB
		}
		return geom.NewHalfspace(geom.Point(q.A), *q.B), nil
	case q.Center != nil || q.Radius != nil:
		if len(q.Center) == 0 || q.Radius == nil {
			return nil, errBallCR
		}
		if *q.Radius < 0 {
			return nil, errBallNegative
		}
		return geom.NewBall(geom.Point(q.Center), *q.Radius), nil
	}
	return nil, errNoClass
}

type estimateRequest struct {
	Model   string      `json:"model,omitempty"`
	Query   *wireQuery  `json:"query,omitempty"`
	Queries []wireQuery `json:"queries,omitempty"`
}

type estimateResponse struct {
	Model      string    `json:"model"`
	Generation int64     `json:"generation"`
	Estimate   *float64  `json:"estimate,omitempty"`
	Estimates  []float64 `json:"estimates,omitempty"`
}

type observation struct {
	wireQuery
	Sel *float64 `json:"sel"`
}

type feedbackRequest struct {
	Model        string        `json:"model,omitempty"`
	Observations []observation `json:"observations"`
}
