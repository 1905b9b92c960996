package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/go-citrus/citrus/internal/seqbst"
)

// FuzzExecVerb feeds arbitrary bytes to the TCP line protocol, one line
// at a time, on a one-shard in-memory server, and checks every reply
// against a sequential model: a well-formed SET, GET, DEL, SCAN, LEN or
// QUIT line answers exactly what internal/seqbst predicts, and any
// other line answers ERR. Write shedding is switched off (no stall
// detector, no reclaimer watermark), because whether it fires depends
// on timing, not on the input.
//
//	go test -run FuzzExecVerb -fuzz FuzzExecVerb -fuzztime 20s ./examples/kvserver
func FuzzExecVerb(f *testing.F) {
	for _, seed := range []string{
		"SET 2 two\nSET 1 one\nSET 3 three\nDEL 2\nGET 2\nGET 3\nLEN",
		"set 5 a b  c\nget 5\nSCAN 0 10 3\nSCAN 10 0 1\nDEL 5\nDEL 5\nlen",
		"SET 1 x\nSET 1 y\nSCAN -9223372036854775808 9223372036854775807 1001\nQUIT\nGET 1",
		"\n \t\nBOGUS 1\nSET\nSET x y\nGET\nGET +7\nDEL 1e3\nSCAN 1 2\nSCAN 1 2 0\nSCAN 1 2 x\nSCAN 1 2 3 4",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := defaultKVConfig()
		cfg.demo = false
		cfg.stallTimeout = 0
		cfg.recHigh = 0
		s := newServer(cfg)
		defer s.close()
		h := s.newHandle()
		defer h.Close()
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
		if m.Insert(key, strings.Join(fields[2:], " ")) {
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
