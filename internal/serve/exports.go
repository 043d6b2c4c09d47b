package serve

// Exported request-shape hooks and response writers for the routing
// gateway (internal/gateway).
//
// The gateway routes by the same canonical decision key the LRU and WAL
// use, so a key's owner shard is stable and
// every layer of the system agrees on identity. These hooks expose just
// enough of the server's parsing and resolution machinery to compute
// that key outside a Server instance — the logic is shared with the
// request path, not duplicated, so the two can never drift.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"

	"repro/internal/catalog"
)

// exportIndex is the package-level catalog index for key resolution
// outside a Server; built once on first use, identical by construction
// to the index every Server builds at New.
var (
	exportIndexOnce sync.Once
	exportIndex     map[string]catalog.System
)

func exportSystemIndex() map[string]catalog.System {
	exportIndexOnce.Do(func() {
		all := catalog.All()
		exportIndex = make(map[string]catalog.System, len(all))
		for _, sys := range all {
			exportIndex[sys.Name] = sys
		}
	})
	return exportIndex
}

// ResolveDecisionKey appends the canonical decision cache key for req to
// dst and reports whether the request resolved. A request that fails
// resolution (unknown system, missing fields, no threshold in force) has
// no canonical key; the caller should forward it unrouted so the backend
// produces the canonical error text.
func ResolveDecisionKey(dst []byte, req *LicenseRequest) ([]byte, bool) {
	var a fillArgs
	if herr := resolveLicenseArgs(exportSystemIndex(), req, &a); herr != nil {
		return dst, false
	}
	return appendDecisionKey(dst, &a), true
}

// DecodeLicenseQuery parses a /v1/license GET query string into a
// request, using the same parser as the server. ok is false for queries
// the server would reject.
func DecodeLicenseQuery(rawQuery string) (LicenseRequest, bool) {
	var req LicenseRequest
	if herr := parseLicenseQuery(rawQuery, &req); herr != nil {
		return LicenseRequest{}, false
	}
	return req, true
}

// DecodeLicenseBody parses a /v1/license POST body with the server's
// acceptance rules: the hand-rolled fast parser first, the strict stdlib
// decoder as fallback. It returns either the single request or the batch
// slice (isBatch true). ok is false for bodies the server would reject —
// malformed JSON, trailing data, or a body that sets both the single and
// batch forms.
func DecodeLicenseBody(body []byte) (single LicenseRequest, batch []LicenseRequest, isBatch, ok bool) {
	var pb licensePostBody
	if !parseLicensePostBody(body, &pb) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		pb = licensePostBody{}
		if err := dec.Decode(&pb); err != nil || dec.More() {
			return LicenseRequest{}, nil, false, false
		}
	}
	if pb.Requests != nil {
		if pb.LicenseRequest != (LicenseRequest{}) {
			return LicenseRequest{}, nil, false, false
		}
		return LicenseRequest{}, pb.Requests, true, true
	}
	return pb.LicenseRequest, nil, false, true
}

// WriteJSON, WriteRawJSON and WriteError are the server's JSON response
// writers, exported so the gateway's own answers carry the same headers
// and bytes as a backend's.
func WriteJSON(w http.ResponseWriter, code int, v interface{}) { writeJSON(w, code, v) }

// WriteRawJSON writes an already-encoded JSON body; see WriteJSON.
func WriteRawJSON(w http.ResponseWriter, code int, body []byte) { writeRawJSON(w, code, body) }

// WriteError writes an ErrorResponse body; see WriteJSON.
func WriteError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeError(w, code, format, args...)
}
