package httpseg

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/abr"
	"repro/internal/units"
	"repro/internal/video"
)

// FuzzDecideHTTP sends one request of arbitrary method, query and body to a
// fresh /decide service. ServeHTTP must not panic and must answer 200, 400,
// 405, 429 or 503. A 200 must carry only inputs the endpoint documents as
// valid, read here with strconv independently of the handler, and its reply
// must equal what the in-process Decide returns for that request on a fresh
// twin service: same session, segment, rung, bitrate and wait. Tables are off
// so each service is cheap to build.
func FuzzDecideHTTP(f *testing.F) {
	for _, seed := range []struct{ method, query, body string }{
		{"GET", "session=a&buffer=10&throughput=8", ""},
		{"GET", "session=a&client=c&buffer=3.5&throughput=0.7&cap=4&segment=3&prev=1", ""},
		{"GET", "session=a&buffer=19.9&throughput=40&prev=-1", ""},
		{"GET", "session=a&buffer=8e307&throughput=8", ""},
		{"GET", "session=a&buffer=10&throughput=1e308", ""},
		{"GET", "session=a&buffer=10&throughput=0x1p1023", ""},
		{"GET", "session=a&buffer=10&throughput=1.7976931348623157e308", ""},
		{"GET", "session=a&buffer=5e-324&throughput=2.2250738585072014e-308", ""},
		{"GET", "session=a&buffer=-0&throughput=-0", ""},
		{"GET", "session=a&buffer=NaN&throughput=8", ""},
		{"GET", "session=a&buffer=10&throughput=8&cap=1e12", ""},
		{"GET", "session=a&buffer=10&throughput=8&segment=2147483648", ""},
		{"GET", "session=&buffer=10&throughput=8", ""},
		{"POST", "session=a&buffer=10&throughput=8", `{"buffer":10}`},
	} {
		f.Add(seed.method, seed.query, seed.body)
	}
	opts := DecideOptions{MaxSessions: 16}
	f.Fuzz(func(t *testing.T, method, query, body string) {
		svc, err := NewDecideService(video.Mobile(), opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		rw := httptest.NewRecorder()
		svc.ServeHTTP(rw, &http.Request{
			Method: method,
			URL:    &url.URL{Path: "/decide", RawQuery: query},
			Header: http.Header{},
			Body:   io.NopCloser(strings.NewReader(body)),
		})
		switch rw.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusMethodNotAllowed, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return
		default:
			t.Fatalf("%s /decide?%q answered %d", method, query, rw.Code)
		}
		var got decideReply
		if err := json.Unmarshal(rw.Body.Bytes(), &got); err != nil {
			t.Fatalf("200 reply %q does not parse: %v", rw.Body.String(), err)
		}
		req, err := validRequest(method, query, video.Mobile())
		if err != nil {
			t.Fatalf("%s /decide?%q answered 200 on an invalid request: %v", method, query, err)
		}
		twin, err := NewDecideService(video.Mobile(), opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := twin.Decide(&req)
		if want.Status != StatusOK || got != (decideReply{Session: want.SessionID, Segment: want.Segment,
			Rung: want.Rung, BitrateMbps: want.BitrateMbps, WaitSeconds: want.WaitSeconds}) {
			t.Fatalf("/decide?%q replied %+v, in-process Decide %+v", query, got, want)
		}
	})
}

// validRequest reads a query the way the /decide documentation defines it,
// without the handler's parser, and reports why it is invalid if it is.
func validRequest(method, query string, ladder video.Ladder) (DecideRequest, error) {
	if method != http.MethodGet {
		return DecideRequest{}, fmt.Errorf("method %q", method)
	}
	q, _ := url.ParseQuery(query) // the handler reads the query leniently too
	req := DecideRequest{Session: q.Get("session"), Client: q.Get("client"), Segment: -1}
	if req.Session == "" {
		return req, fmt.Errorf("no session")
	}
	number := func(key string, lo, hi float64) (float64, error) {
		v, err := strconv.ParseFloat(q.Get(key), 64)
		if err != nil || math.IsNaN(v) || v < lo || v > hi {
			return 0, fmt.Errorf("%s=%q outside [%g, %g]", key, q.Get(key), lo, hi)
		}
		return v, nil
	}
	buffer, err := number("buffer", 0, 600)
	if err != nil {
		return req, err
	}
	throughput, err := number("throughput", 0, 1e6)
	if err != nil {
		return req, err
	}
	req.Buffer, req.Throughput = units.Seconds(buffer), units.Mbps(throughput)
	if q.Get("cap") != "" {
		bufferCap, err := number("cap", float64(ladder.SegmentSeconds), 600)
		if err != nil {
			return req, err
		}
		req.BufferCap = units.Seconds(bufferCap)
	}
	if v := q.Get("segment"); v != "" {
		seg, err := strconv.Atoi(v)
		if err != nil || seg < 0 || seg > 1<<30 {
			return req, fmt.Errorf("segment=%q", v)
		}
		req.Segment = seg
	}
	if v := q.Get("prev"); v != "" {
		prev, err := strconv.Atoi(v)
		if err != nil || prev < abr.NoRung || prev >= ladder.Len() {
			return req, fmt.Errorf("prev=%q", v)
		}
		req.Prev, req.HavePrev = prev, true
	}
	return req, nil
}
