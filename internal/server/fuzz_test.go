package server

import (
	"errors"
	"testing"

	"fold3d/internal/errs"
	"fold3d/internal/jobs"
)

// FuzzJobRequest feeds arbitrary bodies through the POST /v1/jobs decoding
// path in handler order: decodeStrict, then Request.Fingerprint (the
// routing and reuse key, taken before validation), then Request.Validate.
// None of them may panic, every rejection must wrap errs.ErrBadRequest so
// the envelope maps it to 400, and a decoded request must fingerprint the
// same way twice. The corpus starts from TestClientErrors' bodies and a
// few valid requests that set every field.
func FuzzJobRequest(f *testing.F) {
	for _, c := range clientErrorCases {
		if c.body != "" {
			f.Add([]byte(c.body))
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"experiments":["table4","fig2"],"scale":500,"seed":7,"placer":"analytical","workers":2,"tenant":"acme"}`))
	f.Add([]byte(`{"experiments":["thermal"],"thermal":{"tmax_c":85,"vias":200,"temp_weight_per_c":0.5}}`))
	f.Add([]byte(`{"thermal":{"tmax_c":-40}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req jobs.Request
		err := decodeStrict(body, &req)
		if err == nil {
			if fp := req.Fingerprint(); fp == "" || fp != req.Fingerprint() {
				t.Fatalf("fingerprint %q is empty or unstable", fp)
			}
			err = req.Validate()
		}
		if err != nil && !errors.Is(err, errs.ErrBadRequest) {
			t.Fatalf("rejection does not wrap ErrBadRequest: %v", err)
		}
	})
}
