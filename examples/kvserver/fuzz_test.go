package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/go-citrus/citrus/internal/seqbst"
)

// newFuzzServer builds the one-shard in-memory server a fuzz process
// reuses for every input, and a handle on it. Write shedding is
// switched off (no stall detector), because whether it fires depends on
// timing, not on the input.
func newFuzzServer(f *testing.F) (*server, storeHandle) {
	cfg := defaultKVConfig()
	cfg.demo = false
	cfg.stallTimeout = 0
	s := newServer(cfg)
	h := s.newHandle()
	f.Cleanup(h.Close)
	return s, h
}

// emptyStore deletes every key, so each input starts from an empty
// store whatever the previous input, failed or not, left behind.
func emptyStore(s *server, h storeHandle) {
	for _, k := range s.forest.Keys() {
		h.DeleteWithin(k, 0) //nolint:errcheck // no bound, no error
	}
}

// FuzzExecVerb feeds arbitrary bytes to the TCP line protocol, one line
// at a time, on a one-shard in-memory server, and checks every reply
// against a sequential model: a well-formed SET, GET, DEL, SCAN, LEN or
// QUIT line answers exactly what internal/seqbst predicts, and any
// other line, a SET of a value that is not valid UTF-8 included,
// answers ERR.
//
//	go test -run FuzzExecVerb -fuzz FuzzExecVerb -fuzztime 20s ./examples/kvserver
func FuzzExecVerb(f *testing.F) {
	for _, seed := range []string{
		"SET 2 two\nSET 1 one\nSET 3 three\nDEL 2\nGET 2\nGET 3\nLEN",
		"set 5 a b  c\nget 5\nSCAN 0 10 3\nSCAN 10 0 1\nDEL 5\nDEL 5\nlen",
		"SET 1 x\nSET 1 y\nSCAN -9223372036854775808 9223372036854775807 1001\nQUIT\nGET 1",
		"\n \t\nBOGUS 1\nSET\nSET x y\nGET\nGET +7\nDEL 1e3\nSCAN 1 2\nSCAN 1 2 0\nSCAN 1 2 x\nSCAN 1 2 3 4",
		"SET 12 \xff\xfe\nGET 12\nSET 12 ok \xc3\nSET 12 \u00e9t\u00e9\nSCAN 0 20 5",
	} {
		f.Add([]byte(seed))
	}
	s, h := newFuzzServer(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		emptyStore(s, h)
		model := seqbst.New[int64, string]()
		for _, line := range strings.Split(string(data), "\n") {
			want, wantQuit := predictReply(model, line)
			got, quit := s.exec(h, line)
			if want == "" {
				if !strings.HasPrefix(got, "ERR ") || quit {
					t.Fatalf("exec(%q) = (%q, quit=%v), want an ERR reply", line, got, quit)
				}
			} else if got != want || quit != wantQuit {
				t.Fatalf("exec(%q) = (%q, quit=%v), want (%q, quit=%v)", line, got, quit, want, wantQuit)
			}
		}
	})
}

// predictReply applies one protocol line to the sequential model and
// returns the reply a correct server gives, or "" when the line is
// malformed and the reply must be an ERR. Verbs are case-insensitive,
// and GET, DEL, LEN and QUIT ignore trailing fields.
func predictReply(m *seqbst.Tree[int64, string], line string) (reply string, quit bool) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", false
	}
	key, keyErr := int64(0), strconv.ErrSyntax
	if len(fields) >= 2 {
		key, keyErr = strconv.ParseInt(fields[1], 10, 64)
	}
	switch strings.ToUpper(fields[0]) {
	case "SET":
		if keyErr != nil || len(fields) < 3 {
			return "", false
		}
		value := strings.Join(fields[2:], " ")
		if !utf8.ValidString(value) {
			return "", false
		}
		if m.Insert(key, value) {
			return "OK", false
		}
		return "EXISTS", false
	case "GET":
		if keyErr != nil {
			return "", false
		}
		if v, ok := m.Contains(key); ok {
			return "VALUE " + v, false
		}
		return "NOT_FOUND", false
	case "DEL":
		if keyErr != nil {
			return "", false
		}
		if m.Delete(key) {
			return "OK", false
		}
		return "NOT_FOUND", false
	case "SCAN":
		if len(fields) != 4 {
			return "", false
		}
		hi, hiErr := strconv.ParseInt(fields[2], 10, 64)
		n, nErr := strconv.Atoi(fields[3])
		if keyErr != nil || hiErr != nil || nErr != nil || n <= 0 {
			return "", false
		}
		n = min(n, maxScanResults)
		var b strings.Builder
		count := 0
		m.RangeScan(key, hi, func(k int64, v string) bool {
			fmt.Fprintf(&b, "KEY %d %s\n", k, v)
			count++
			return count < n
		})
		fmt.Fprintf(&b, "END %d", count)
		return b.String(), false
	case "LEN":
		return fmt.Sprintf("LEN %d", m.Len()), false
	case "QUIT":
		return "BYE", true
	}
	return "", false
}

// FuzzHTTPKV sends a fuzzed method, /kv/ path suffix and body, twice,
// and a range scan with a fuzzed query string through the HTTP face of
// a one-shard in-memory server that holds a few pairs, and checks every
// answer against a sequential model: GET, PUT and DELETE on /kv/{key}
// answer the model's status and body, GET /kv?from=&to=&limit= answers
// the model's pairs with "truncated" exact, malformed keys, bounds and
// limits answer 400, and nothing answers 5xx. A PUT of a value that is
// not valid UTF-8 answers 400 and stores nothing. A path the mux must
// clean first is redirected and changes nothing.
//
//	go test -run FuzzHTTPKV -fuzz FuzzHTTPKV -fuzztime 20s ./examples/kvserver
func FuzzHTTPKV(f *testing.F) {
	f.Add("GET", "5", "from=0&to=10&limit=2", []byte(nil))
	f.Add("PUT", "11", "", []byte("eleven"))
	f.Add("PUT", "-3", "to=0", []byte("a\nEND 0"))
	f.Add("POST", "+7", "from=-9223372036854775808&to=9223372036854775807&limit=1001", []byte("tab\tand  spaces"))
	f.Add("DELETE", "5", "limit=1000", []byte(nil))
	f.Add("PATCH", "x", "from=x", []byte("v"))
	f.Add("GET", "%31%33", "limit=0&to=", []byte(nil))
	f.Add("PUT", "1/../2", "limit=-1&from=9223372036854775808", []byte("v"))
	f.Add("PUT", "12", "from=12&to=13", []byte("\xff\xfe"))
	s, h := newFuzzServer(f)
	mux := s.statsMux()
	f.Fuzz(func(t *testing.T, method, suffix, query string, body []byte) {
		emptyStore(s, h)
		model := seqbst.New[int64, string]()
		for _, k := range []int64{-3, 0, 1, 2, 5, 8, 13} {
			v := fmt.Sprintf("v%d with\tspace", k)
			h.Insert(k, v)
			model.Insert(k, v)
		}
		serve := func(req *http.Request) *httptest.ResponseRecorder {
			t.Helper()
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, req)
			if rec.Code >= 500 {
				t.Fatalf("%s %s: status %d %q", req.Method, req.URL, rec.Code, rec.Body)
			}
			return rec
		}

		for range 2 {
			req, err := http.NewRequest(method, "http://kv.test/kv/"+suffix, bytes.NewReader(body))
			if err != nil {
				t.Skip()
			}
			rec := serve(req)
			if rec.Code/100 == 3 {
				if p := req.URL.Path; p == path.Clean(p) {
					t.Fatalf("%s %s: redirected (%d) a clean path", req.Method, req.URL, rec.Code)
				}
				continue
			}
			code, val := predictKV(model, req.Method, strings.TrimPrefix(req.URL.Path, "/kv/"), body)
			if rec.Code != code || (code == http.StatusOK && rec.Body.String() != val) {
				t.Fatalf("%s %s with body %q: status %d body %q, want %d %q", req.Method, req.URL, body, rec.Code, rec.Body, code, val)
			}
		}

		req, err := http.NewRequest("GET", "http://kv.test/kv?"+query, nil)
		if err != nil {
			t.Skip()
		}
		checkScan(t, model, req.URL.Query(), serve(req))
		req = httptest.NewRequest("GET", "/kv?limit=1000", nil)
		checkScan(t, model, req.URL.Query(), serve(req))
	})
}

// predictKV applies one /kv/{key} request to the model and returns the
// status a correct server answers, and for a 200 the body.
func predictKV(m *seqbst.Tree[int64, string], method, key string, body []byte) (int, string) {
	k, err := strconv.ParseInt(key, 10, 64)
	if err != nil {
		return http.StatusBadRequest, ""
	}
	switch method {
	case http.MethodGet:
		if v, ok := m.Contains(k); ok {
			return http.StatusOK, v
		}
		return http.StatusNotFound, ""
	case http.MethodPut, http.MethodPost:
		switch {
		case len(body) > 1<<20:
			return http.StatusRequestEntityTooLarge, ""
		case bytes.ContainsAny(body, "\r\n"), !utf8.Valid(body):
			return http.StatusBadRequest, ""
		case m.Insert(k, string(body)):
			return http.StatusCreated, ""
		}
		return http.StatusConflict, ""
	case http.MethodDelete:
		if m.Delete(k) {
			return http.StatusOK, ""
		}
		return http.StatusNotFound, ""
	}
	return http.StatusMethodNotAllowed, ""
}

// checkScan checks one GET /kv answer against the model's range for its
// query: 400 for a malformed bound or limit, else the model's first
// limit pairs of [from, to) and "truncated" exactly when more exist.
// Every stored value is valid UTF-8, so the JSON values must equal the
// model's exactly.
func checkScan(t *testing.T, m *seqbst.Tree[int64, string], q url.Values, rec *httptest.ResponseRecorder) {
	t.Helper()
	bound := func(name string, def int64) (int64, bool) {
		if v := q.Get(name); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			return n, err == nil
		}
		return def, true
	}
	from, okFrom := bound("from", math.MinInt64)
	to, okTo := bound("to", math.MaxInt64)
	limit, okLimit := 100, true
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		limit, okLimit = min(n, maxScanResults), err == nil && n > 0
	}
	if !okFrom || !okTo || !okLimit {
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("GET /kv?%s: status %d, want 400", q.Encode(), rec.Code)
		}
		return
	}
	type pair struct {
		Key   int64  `json:"key"`
		Value string `json:"value"`
	}
	var want []pair
	m.RangeScan(from, to, func(k int64, v string) bool {
		want = append(want, pair{k, v})
		return len(want) <= limit
	})
	truncated := len(want) > limit
	want = want[:min(len(want), limit)]
	var got struct {
		Count     int    `json:"count"`
		Truncated bool   `json:"truncated"`
		Pairs     []pair `json:"pairs"`
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /kv?%s: status %d %q", q.Encode(), rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("GET /kv?%s: %v", q.Encode(), err)
	}
	if got.Count != len(want) || got.Truncated != truncated || !slices.Equal(got.Pairs, want) {
		t.Fatalf("GET /kv?%s = %d pairs, truncated %v: %v\nwant %d, truncated %v: %v",
			q.Encode(), got.Count, got.Truncated, got.Pairs, len(want), truncated, want)
	}
}

// FuzzDecodeRecord feeds arbitrary WAL payloads to decodeRecord: it
// must never panic, and a payload it accepts must be byte for byte what
// encodeSet or encodeDel writes for the decoded fields.
//
//	go test -run FuzzDecodeRecord -fuzz FuzzDecodeRecord -fuzztime 20s ./examples/kvserver
func FuzzDecodeRecord(f *testing.F) {
	f.Add(encodeSet(-7, "value with spaces"))
	f.Add(encodeSet(1, ""))
	f.Add(encodeDel(42))
	f.Add(append(encodeDel(3), 0))
	f.Add([]byte{opDel, 1, 2})
	f.Add([]byte{0x03, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		op, key, value, err := decodeRecord(payload)
		if err != nil {
			return
		}
		var again []byte
		switch op {
		case opSet:
			again = encodeSet(key, value)
		case opDel:
			if value != "" {
				t.Fatalf("DEL record %x decoded with value %q", payload, value)
			}
			again = encodeDel(key)
		default:
			t.Fatalf("decodeRecord accepted op %#x in %x", op, payload)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("record %x decodes to (%#x, %d, %q), which encodes as %x", payload, op, key, value, again)
		}
	})
}
