package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

// TestWorkspaceQueryWirePin pins the exact response bytes of every
// /v1/workspaces/{id}/query op on one acyclic and one cyclic workspace
// (each with two connected components, so the join forest has two roots).
// Each op is asked twice on a server with the epoch-keyed response cache
// (miss, then hit for the cacheable ops) and once on a server without it;
// all three answers must be byte-identical to the pinned body.
func TestWorkspaceQueryWirePin(t *testing.T) {
	type pin struct {
		status int
		body   string
	}
	cases := []struct {
		schema string
		want   map[string]pin
	}{
		{
			schema: fig1Text + "\nX Y\nY Z",
			want: map[string]pin{
				"verdict":        {200, `{"acyclic":true,"epoch":6}` + "\n"},
				"jointree":       {200, `{"epoch":6,"parent":[-1,3,3,0,-1,4],"roots":[0,4]}` + "\n"},
				"fullreducer":    {200, `{"epoch":6,"program":[{"target":3,"source":1},{"target":3,"source":2},{"target":0,"source":3},{"target":4,"source":5},{"target":5,"source":4},{"target":3,"source":0},{"target":2,"source":3},{"target":1,"source":3}]}` + "\n"},
				"classification": {200, `{"alpha":true,"berge":false,"beta":false,"degree":"alpha-acyclic","epoch":6,"gamma":false}` + "\n"},
				"snapshot":       {200, `{"edges":[["A","B","C"],["C","D","E"],["A","E","F"],["A","C","E"],["X","Y"],["Y","Z"]],"epoch":6}` + "\n"},
			},
		},
		{
			schema: triangleText + "\nP Q",
			want: map[string]pin{
				"verdict":        {200, `{"acyclic":false,"epoch":4}` + "\n"},
				"jointree":       {422, `{"error":{"code":"cyclic","message":"repro: hypergraph is cyclic"}}` + "\n"},
				"fullreducer":    {422, `{"error":{"code":"cyclic","message":"repro: schema is cyclic; no join tree exists"}}` + "\n"},
				"classification": {200, `{"alpha":false,"berge":false,"beta":false,"degree":"cyclic","epoch":4,"gamma":false}` + "\n"},
				"snapshot":       {200, `{"edges":[["A","B"],["B","C"],["A","C"],["P","Q"]],"epoch":4}` + "\n"},
			},
		},
	}
	ops := []string{"verdict", "jointree", "fullreducer", "classification", "snapshot"}

	_, cached := newTestServer(t, Config{}, nil)
	_, uncached := newTestServer(t, Config{RespCacheEntries: -1}, nil)
	for ci, c := range cases {
		id := fmt.Sprintf("ws-%d", ci+1)
		for _, url := range []string{cached.URL, uncached.URL} {
			resp, body := do(t, "POST", url+"/v1/workspaces", schemaBody(c.schema), nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("create %s: %d %s", id, resp.StatusCode, body)
			}
		}
		for _, op := range ops {
			q, _ := json.Marshal(map[string]string{"op": op})
			var got []pin
			for _, url := range []string{cached.URL, cached.URL, uncached.URL} {
				resp, body := do(t, "POST", url+"/v1/workspaces/"+id+"/query", string(q), nil)
				got = append(got, pin{resp.StatusCode, string(body)})
			}
			want := c.want[op]
			for i, g := range got {
				if g != want {
					t.Errorf("%s %s (answer %d): got %d %q, want %d %q", id, op, i, g.status, g.body, want.status, want.body)
				}
			}
		}
	}
}
