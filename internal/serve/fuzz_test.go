package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// FuzzQuery sends an arbitrary query string to /price, /optimize or
// /simulate (path picks which) of one server, through its handler. No
// input may panic it; every body must be JSON (NDJSON, line by line, for a
// streamed /simulate); every non-200 answer must carry an error code; and
// no input may reach a 500: a query the decoder cannot make sense of is the
// client's error, a 400.
func FuzzQuery(f *testing.F) {
	for _, seed := range []struct {
		path  uint8
		query string
	}{
		{0, "alg=matmul&n=32768&p=1024"},
		{0, "alg=lu&n=1e300&p=-3&M=NaN"},
		{0, "alg=fft&n=%zz&p=4"},
		{1, "alg=matmul&n=4096&p_max=1e9&objective=min_energy_given_time&time_s=1e-300"},
		{1, "alg=nbody&n=1e6&objective=min_energy_given_power&power_w=Inf"},
		{2, "alg=summa25d&n=64&q=4&c=1"},
		{2, "alg=matmul25d&n=8&q=2&c=2&stream=1&deadline_ms=5"},
		{2, "n=64&q=99999999999999999999&c=-1"},
		{2, "alg=summa25d&n=64&q=4&c=1&deadline_ms=-1&seed=x"},
	} {
		f.Add(seed.path, seed.query)
	}
	s, _ := newTestServer(f, Options{MaxSimRanks: 16, MaxSimN: 64, HeavyQueue: 8})
	paths := []string{"/price", "/optimize", "/simulate"}
	f.Fuzz(func(t *testing.T, path uint8, query string) {
		target := paths[int(path)%len(paths)]
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		req.URL = &url.URL{Path: target, RawQuery: query}
		req.RequestURI = req.URL.RequestURI()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		body := rec.Body.Bytes()
		if strings.HasPrefix(rec.Header().Get("Content-Type"), "application/x-ndjson") {
			for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
				if !json.Valid(line) {
					t.Fatalf("%s?%s: %d stream line is not JSON: %q", target, query, rec.Code, line)
				}
			}
		} else if !json.Valid(body) {
			t.Fatalf("%s?%s: %d body is not JSON: %q", target, query, rec.Code, body)
		}
		if rec.Code == http.StatusOK {
			return
		}
		var e struct {
			Code string `json:"error"`
		}
		if json.Unmarshal(body, &e) != nil || e.Code == "" {
			t.Fatalf("%s?%s: %d without an error code: %s", target, query, rec.Code, body)
		}
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("%s?%s: 500 %s", target, query, body)
		}
	})
}
