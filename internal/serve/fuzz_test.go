package serve

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/pdf"
)

// finiteMass reports whether p's mass over its own support is a finite
// number — what every evaluation over p assumes.
func finiteMass(p pdf.PDF) bool {
	m := p.MassIn(p.Support())
	return !math.IsNaN(m) && !math.IsInf(m, 0)
}

// FuzzRequestJSON feeds arbitrary bodies through the request decoder:
// a body either fails to decode, or ToRequest returns a typed
// *core.RequestError, or it yields a request whose issuer has finite
// mass and whose guard region has no NaN coordinate.
func FuzzRequestJSON(f *testing.F) {
	for _, body := range []string{
		`{"issuer": {"region": [450, 450, 550, 550]}, "w": 100, "h": 100, "threshold": 0.3}`,
		`{"kind": "points", "issuer": {"region": [0, 0, 10, 10], "pdf": "gaussian"}, "w": 5, "h": 5}`,
		`{"kind": "nn", "issuer": {"region": [450, 450, 550, 550]}, "k": 2, "seed": 7}`,
		`{"issuer": {"region": [-1.7e308, -1.7e308, 1.7e308, 1.7e308]}, "w": 1, "h": 1}`,
		`{"issuer": {"region": [0, 0, 10, 10], "pdf": "gaussian", "sigma_x": 1e-300}, "w": 1e308, "h": 1}`,
		`{"kind": "voronoi", "issuer": {"region": [0, 0, 10]}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rj RequestJSON
		if json.Unmarshal(data, &rj) != nil {
			return
		}
		req, err := rj.ToRequest()
		if err != nil {
			var reqErr *core.RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("untyped decode error %T: %v", err, err)
			}
			return
		}
		if !finiteMass(req.Issuer.PDF) {
			t.Fatalf("issuer %v has non-finite mass", req.Issuer.PDF.Support())
		}
		g, err := req.GuardRegion()
		if err != nil {
			t.Fatalf("guard of a valid request: %v", err)
		}
		for _, v := range []float64{g.Lo.X, g.Lo.Y, g.Hi.X, g.Hi.Y} {
			if math.IsNaN(v) {
				t.Fatalf("guard region %v has a NaN coordinate", g)
			}
		}
	})
}

// FuzzUpdateJSON does the same for the update decoder: an upserted
// object must come out with finite mass.
func FuzzUpdateJSON(f *testing.F) {
	for _, body := range []string{
		`{"op": "upsert_object", "id": 7, "region": [480, 480, 520, 520]}`,
		`{"op": "upsert_object", "id": 8, "region": [0, 0, 10, 10], "pdf": "gaussian", "sigma_y": 2}`,
		`{"op": "upsert_object", "id": 9, "region": [-1.7e308, 0, 1.7e308, 10]}`,
		`{"op": "upsert_point", "id": 1, "x": 3, "y": 4}`,
		`{"op": "delete_object", "id": 7}`,
		`{"op": "teleport"}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var uj UpdateJSON
		if json.Unmarshal(data, &uj) != nil {
			return
		}
		u, err := uj.ToUpdate()
		if err != nil || u.Op != core.OpUpsertObject {
			return
		}
		if !finiteMass(u.Object.PDF) {
			t.Fatalf("object %v has non-finite mass", u.Object.PDF.Support())
		}
	})
}
