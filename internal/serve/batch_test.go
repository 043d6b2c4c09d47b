package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestLicenseBatchPartialFailure drives a batch mixing every per-item
// failure mode with valid requests (including a duplicate), and verifies
// each slot answers independently: decisions where the regime answers,
// the exact resolver error text where it does not, and identical bytes
// for identical items.
func TestLicenseBatchPartialFailure(t *testing.T) {
	h := newTestServer(t).Handler()
	body := `{"requests":[` +
		`{"ctp":2000,"destination":"japan"},` + // valid
		`{"system":"no-such-machine","destination":"japan"},` + // unknown system
		`{"destination":"india"},` + // neither system nor ctp
		`{"system":"Cray C916","ctp":100,"destination":"india"},` + // both
		`{"ctp":-5,"destination":"india"},` + // non-positive CTP, fails in evaluation
		`{"ctp":100,"destination":"india","date":1984.0},` + // pre-regime date
		`{"ctp":2000,"destination":"japan"}` + // duplicate of item 0
		`]}`
	rec := do(t, h, "POST", "/v1/license", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d: %s", rec.Code, rec.Body)
	}
	var br BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Decisions) != 7 {
		t.Fatalf("answered %d items, want 7", len(br.Decisions))
	}
	wantErr := map[int]string{
		1: `unknown system "no-such-machine"`,
		2: "missing system name or ctp rating",
		3: "give a system name or a ctp rating, not both",
		4: "safeguards: malformed license application: non-positive CTP -5 Mtops",
		5: "no control threshold in force at 1984.00; give one explicitly",
	}
	for i, item := range br.Decisions {
		if msg, bad := wantErr[i]; bad {
			if item.Decision != nil {
				t.Errorf("item %d: got a decision, want error %q", i, msg)
				continue
			}
			if item.Error != msg {
				t.Errorf("item %d: error = %q, want %q", i, item.Error, msg)
			}
			continue
		}
		if item.Decision == nil {
			t.Errorf("item %d: error %q, want a decision", i, item.Error)
		}
	}
	// Duplicate items share one cached decision, so their wire renderings
	// are identical.
	d0, _ := json.Marshal(br.Decisions[0])
	d6, _ := json.Marshal(br.Decisions[6])
	if !bytes.Equal(d0, d6) {
		t.Errorf("duplicate items differ: %s vs %s", d0, d6)
	}
}

// TestLicenseBatchBodyMatchesStdlib re-marshals the decoded batch
// response with encoding/json and requires the handler's hand-assembled
// body to be byte-identical — the batch extension of the codec's
// differential-identity contract.
func TestLicenseBatchBodyMatchesStdlib(t *testing.T) {
	h := newTestServer(t).Handler()
	bodies := []string{
		`{"requests":[]}`,
		`{"requests":[{"ctp":2000,"destination":"japan"}]}`,
		`{"requests":[{"system":"Cray C916","destination":"India","endUse":"weather  modeling\t"},` +
			`{"system":"nope","destination":"x"},{"ctp":10,"destination":"iran"}]}`,
	}
	for _, body := range bodies {
		rec := do(t, h, "POST", "/v1/license", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
		}
		var br BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		want, err := json.Marshal(br)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("batch body diverges from stdlib marshal:\n got: %s\nwant: %s", rec.Body.Bytes(), want)
		}
		if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(rec.Body.Len()) {
			t.Errorf("Content-Length = %q, body is %d bytes", got, rec.Body.Len())
		}
	}
}

// TestLicenseBatchParallelMatchesInline answers eight cold 96-item
// batches concurrently on one server — four distinct bodies, each sent
// twice, so concurrent batches also race on the same keys — and requires
// each body to be byte-identical to the same batch answered alone on a
// fresh server: concurrency is an execution detail, not an observable
// one.
func TestLicenseBatchParallelMatchesInline(t *testing.T) {
	const distinct = 4
	bodies := make([]string, distinct)
	want := make([][]byte, distinct)
	for b := range bodies {
		var sb strings.Builder
		sb.WriteString(`{"requests":[`)
		for i := 0; i < 96; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			k := b*96 + i
			switch i % 4 {
			case 0:
				fmt.Fprintf(&sb, `{"ctp":%d,"destination":"japan","endUse":"lot %d"}`, 100+k*37, k)
			case 1:
				fmt.Fprintf(&sb, `{"ctp":%d,"destination":"india"}`, 1900+k*11)
			case 2:
				fmt.Fprintf(&sb, `{"system":"Cray C916","destination":"dest-%d"}`, k)
			default:
				fmt.Fprintf(&sb, `{"system":"missing-%d","destination":"japan"}`, k)
			}
		}
		sb.WriteString(`]}`)
		bodies[b] = sb.String()
		rec := do(t, newTestServer(t).Handler(), "POST", "/v1/license", bodies[b])
		if rec.Code != http.StatusOK {
			t.Fatalf("reference batch %d: status %d", b, rec.Code)
		}
		want[b] = rec.Body.Bytes()
	}

	h := newTestServer(t).Handler()
	got := make([]*httptest.ResponseRecorder, 2*distinct)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/license", strings.NewReader(bodies[i%distinct])))
			got[i] = rec
		}(i)
	}
	close(start)
	wg.Wait()
	for i, rec := range got {
		if rec.Code != http.StatusOK {
			t.Fatalf("concurrent batch %d: status %d", i, rec.Code)
		}
		if !bytes.Equal(rec.Body.Bytes(), want[i%distinct]) {
			t.Errorf("concurrent batch %d differs from the batch answered alone", i)
		}
	}
	// And a second, warm pass over the same batch is byte-identical to
	// the cold one (hit ≡ cold, batch form).
	recWarm := do(t, h, "POST", "/v1/license", bodies[0])
	if !bytes.Equal(recWarm.Body.Bytes(), want[0]) {
		t.Error("warm batch body differs from cold batch body")
	}
}

// TestLicenseBatchRepeatedColdKeyFillsOnce pins that a key repeated
// inside one cold batch is filled once: one evaluation logged to the
// decision log and one cache entry, with every occurrence answered by
// the bytes a single request for the key gets.
func TestLicenseBatchRepeatedColdKeyFillsOnce(t *testing.T) {
	s, l := newWALServer(t, t.TempDir(), nil)
	defer func() { _ = l.Close() }()
	const item = `{"ctp":2000,"destination":"japan"}`
	rec := do(t, s.Handler(), "POST", "/v1/license", `{"requests":[`+item+`,`+item+`,`+item+`]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d: %s", rec.Code, rec.Body)
	}
	if got := l.Stats().Appends; got != 1 {
		t.Errorf("decision log appends = %d, want 1", got)
	}
	if got := s.decisions.Len(); got != 1 {
		t.Errorf("cached decisions = %d, want 1", got)
	}

	single := do(t, newTestServer(t).Handler(), "POST", "/v1/license", item)
	if single.Code != http.StatusOK {
		t.Fatalf("single status = %d: %s", single.Code, single.Body)
	}
	var br struct {
		Decisions []struct {
			Decision json.RawMessage `json:"decision"`
		} `json:"decisions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Decisions) != 3 {
		t.Fatalf("answered %d items, want 3", len(br.Decisions))
	}
	want := bytes.TrimSuffix(single.Body.Bytes(), []byte("\n"))
	for i, it := range br.Decisions {
		if !bytes.Equal(it.Decision, want) {
			t.Errorf("item %d:\n got: %s\nwant: %s", i, it.Decision, want)
		}
	}
}
