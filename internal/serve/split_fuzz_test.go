package serve

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// decodeBatch is the oracle for SplitBatch: the answer decoded into the wire
// type with each element left as json.RawMessage, as the router read a shard's
// answer before it split them. It accepts what that decode accepts with model
// and version both present and not null, one element per user, each a JSON
// object.
func decodeBatch(body []byte, users int) (model string, version int, results []json.RawMessage, ok bool) {
	var env struct {
		Model   *string           `json:"model"`
		Version *int              `json:"version"`
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Model == nil || env.Version == nil || len(env.Results) != users {
		return "", 0, nil, false
	}
	for _, el := range env.Results {
		if len(el) == 0 || el[0] != '{' {
			return "", 0, nil, false
		}
	}
	return *env.Model, *env.Version, env.Results, true
}

// FuzzBatchSpliceMatchesDecode holds SplitBatch to decodeBatch for any body
// and user count: the split either refuses the body, or reads the same model
// string, version and element bytes as the decode. It never accepts a body
// the decode refuses; it may refuse one the decode accepts (a key given
// twice, a key spelled in another case). A server's own answers, and
// well-formed ones in another key order and spacing, are accepted, and
// AppendBatch writes what the split read as an envelope that splits the
// same.
func FuzzBatchSpliceMatchesDecode(f *testing.F) {
	s, err := New(wireFixture(), newWireEngine(`GANC(<Pop>, θ^G & "Dyn")`, 0), 3)
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	type answer struct {
		body  string
		users int
	}
	// Serve writes its keys in one order and no space; the split reads any
	// order and spacing, and skips keys of any kind it does not know.
	accepted := []answer{
		{` { "results" : [ {"a":[1,"]"]} , { } ] , "version" : -0 , "model" : "\"m\\" , "x":{"model":1} } `, 2},
		{`{"results":[{}],"model":"m","x":[true,null,-1.5e3],"y":"}","version":7,"z":0}`, 1},
	}
	for _, users := range [][]string{
		{userPlain},
		{userHTML, userUni, userPlain, userEmpty, userFails, "nobody", `c]a[r,l}\o{"`},
	} {
		req, _ := json.Marshal(BatchRequest{Users: users})
		status, body := serveOnce(h, "POST", "/recommend/batch", string(req))
		if status != 200 {
			f.Fatalf("batch answered %d: %s", status, body)
		}
		accepted = append(accepted, answer{body, len(users)})
	}
	for _, a := range accepted {
		if _, err := SplitBatch([]byte(a.body), a.users); err != nil {
			f.Fatalf("a well-formed answer is refused: %v\n%s", err, a.body)
		}
		f.Add([]byte(a.body), uint8(a.users))
	}
	two := `[{"user":"u"},{"user":"v"}]`
	for _, body := range []string{
		`{"model":"m","version":1,"results":` + two + `}`,
		`{"model":null,"version":1,"results":` + two + `}`,
		`{"version":1,"results":` + two + `}`,
		`{"model":"m","results":` + two + `}`,
		`{"model":"m","version":1.5,"results":` + two + `}`,
		`{"model":"m","version":1e3,"results":` + two + `}`,
		`{"model":"m","version":99999999999999999999,"results":` + two + `}`,
		`{"model":"m","version":1,"results":[{"user":"u"}],"results":` + two + `}`,
		`{"model":"m","version":1,"results":` + two + `,"results":[{"user":"u"}]}`,
		`{"model":"m","version":1,"results":[{"user":"u"}],"results":[{"user":"v"}]}`,
		`{"model":"m","model":"n","version":1,"results":` + two + `}`,
		`{"Model":"m","version":1,"results":` + two + `}`,
		`{"model":"a","MODEL":"b","version":1,"results":` + two + `}`,
		`{"model":"m","vers\u0069on":1,"results":` + two + `}`,
		`{"model":"m","version":1,"reſultſ":` + two + `}`,
		`{"model":"m","version":1,"results":[{"user":"u"},2]}`,
		`{"model":"m","version":1,"results":null}`,
		`null`,
		`[]`,
	} {
		f.Add([]byte(body), uint8(2))
	}

	f.Fuzz(func(t *testing.T, body []byte, n uint8) {
		users := int(n)
		parts, err := SplitBatch(body, users)
		model, version, results, ok := decodeBatch(body, users)
		if err != nil {
			return
		}
		if !ok {
			t.Fatalf("split accepted a body the decode refuses:\n%q", body)
		}
		var splitModel string
		if err := json.Unmarshal(parts.Model, &splitModel); err != nil || splitModel != model {
			t.Fatalf("split read model %s (%v), the decode %q:\n%q", parts.Model, err, model, body)
		}
		if parts.Version != version {
			t.Fatalf("split read version %d, the decode %d:\n%q", parts.Version, version, body)
		}
		if len(parts.Results) != len(results) {
			t.Fatalf("split read %d elements, the decode %d:\n%q", len(parts.Results), len(results), body)
		}
		for k := range results {
			if !bytes.Equal(parts.Results[k], results[k]) {
				t.Fatalf("element %d: split read %s, the decode %s:\n%q", k, parts.Results[k], results[k], body)
			}
		}
		// What the split read, appended again, splits the same.
		rebuilt := append(AppendBatch(nil, parts), '}')
		again, err := SplitBatch(rebuilt, users)
		if err != nil || !bytes.Equal(again.Model, parts.Model) || again.Version != parts.Version ||
			!slices.EqualFunc(again.Results, parts.Results, bytes.Equal) {
			t.Fatalf("AppendBatch of what %q splits into is %q, which splits into %+v (%v)", body, rebuilt, again, err)
		}
	})
}
