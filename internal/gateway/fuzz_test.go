package gateway

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSplitBatchItems checks the batch framing scanner against
// encoding/json. The scanner splices backend bytes into client answers,
// so on any body encoding/json accepts as {"decisions":[...]} it must
// never disagree: when it splits, the items are exactly the array's
// values (up to the JSON whitespace around them), and when the body is
// the array's values under the backends' compact framing, it must split.
// On bodies encoding/json rejects it may split or refuse, but must not
// panic. The committed corpus is under testdata/fuzz/FuzzSplitBatchItems.
func FuzzSplitBatchItems(f *testing.F) {
	for _, seed := range []string{
		`{"decisions":[{"decision":{"license":true,"ctp":21125}},{"error":"unknown system"}]}` + "\n",
		`{"decisions":[]}` + "\n",
		`{"decisions":[ ]}`,
		`{"decisions":[ {"a":1} , [2,{"b":"]}"}] ]}` + "\n",
		`{"decisions":[{"error":"no, really: }]{[\" fine \\"}]}`,
		`{"decisions":[1],"decisions":[2]}`,
		`{"decisions":[{"a":1}],"requests":[{"b":2}]}` + "\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		items, ok := splitBatchItems(body)
		var ref struct {
			Decisions []json.RawMessage `json:"decisions"`
		}
		if json.Unmarshal(body, &ref) != nil || !bytes.HasPrefix(body, []byte(batchBodyPrefix)) {
			return
		}
		if ok {
			if len(items) != len(ref.Decisions) {
				t.Fatalf("split %q into %d items, encoding/json sees %d", body, len(items), len(ref.Decisions))
			}
			for i, it := range items {
				if got := bytes.Trim(it, jsonSpace); !bytes.Equal(got, ref.Decisions[i]) {
					t.Fatalf("item %d of %q: split %q, encoding/json %q", i, body, got, ref.Decisions[i])
				}
			}
			return
		}
		framed := append([]byte(batchBodyPrefix), bytes.Join(rawItems(ref.Decisions), []byte(","))...)
		framed = append(framed, ']', '}')
		if bytes.Equal(bytes.TrimSuffix(body, []byte("\n")), framed) {
			t.Fatalf("split refused the canonically framed body %q", body)
		}
	})
}

func rawItems(raw []json.RawMessage) [][]byte {
	out := make([][]byte, len(raw))
	for i, r := range raw {
		out[i] = r
	}
	return out
}
