package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// serveTCP serves s's line protocol on an ephemeral loopback port until
// the test ends, one handle goroutine per connection as run does, and
// returns the address.
func serveTCP(t *testing.T, s *server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.handle(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

// dialTCP opens a client connection whose reads and writes fail the
// test after ten seconds instead of hanging it.
func dialTCP(t *testing.T, addr string) *net.TCPConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // a fresh conn
	return c.(*net.TCPConn)
}

// expectBytes reads exactly len(want) bytes and fails unless they are
// want.
func expectBytes(t *testing.T, c net.Conn, what, want string) {
	t.Helper()
	got := make([]byte, len(want))
	if n, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("%s: read %d of %d reply bytes (%q): %v", what, n, len(want), got[:n], err)
	}
	if string(got) != want {
		t.Fatalf("%s: reply\n%q\nwant\n%q", what, got, want)
	}
}

// expectEOF fails unless the server has closed the connection with
// nothing more to send.
func expectEOF(t *testing.T, c net.Conn, what string) {
	t.Helper()
	rest, err := io.ReadAll(c)
	if err != nil || len(rest) != 0 {
		t.Fatalf("%s: after the reply got %q, %v; want EOF", what, rest, err)
	}
}

func send(t *testing.T, c net.Conn, data string) {
	t.Helper()
	if _, err := io.WriteString(c, data); err != nil {
		t.Fatalf("write %q: %v", data, err)
	}
}

// TestConnFraming pins the connection loop's framing with exact reply
// bytes over a real TCP connection: pipelined requests, a request split
// across two writes at every byte offset, CRLF line endings, a final
// request with no newline before the client half-closes, an empty line,
// a lower-case verb and a 100-pair SCAN page.
func TestConnFraming(t *testing.T) {
	s, h := newTestServer()
	defer h.Close()
	addr := serveTCP(t, s)
	c := dialTCP(t, addr)

	send(t, c, "SET 1 one\nSET 2 two words\nGET 1\nGET 3\nDEL 2\nGET 2\nLEN\n")
	expectBytes(t, c, "pipelined", "OK\nOK\nVALUE one\nNOT_FOUND\nOK\nNOT_FOUND\nLEN 1\n")

	const req = "GET 1\n"
	for i := 0; i <= len(req); i++ {
		send(t, c, req[:i])
		time.Sleep(time.Millisecond) // let the server read the first part alone
		send(t, c, req[i:])
		expectBytes(t, c, fmt.Sprintf("split at %d", i), "VALUE one\n")
	}

	send(t, c, "SET 20 crlf value\r\nGET 20\r\nSCAN 20 21 5\r\n")
	expectBytes(t, c, "CRLF", "OK\nVALUE crlf value\nKEY 20 crlf value\nEND 1\n")

	send(t, c, "\nget 20\nBOGUS\n")
	expectBytes(t, c, "empty line, lower-case verb, unknown verb",
		"ERR empty command\nVALUE crlf value\nERR unknown command BOGUS\n")

	for k := 100; k < 250; k++ {
		send(t, c, fmt.Sprintf("SET %d v%d\n", k, k))
		expectBytes(t, c, fmt.Sprintf("SET %d", k), "OK\n")
	}
	var page strings.Builder
	for k := 100; k < 200; k++ {
		fmt.Fprintf(&page, "KEY %d v%d\n", k, k)
	}
	page.WriteString("END 100\n")
	send(t, c, "SCAN 100 1000 100\n")
	expectBytes(t, c, "100-pair SCAN", page.String())

	send(t, c, "GET 20")
	if err := c.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	expectBytes(t, c, "unterminated last request", "VALUE crlf value\n")
	expectEOF(t, c, "after half-close")

	q := dialTCP(t, addr)
	send(t, q, "QUIT\nGET 1\n")
	expectBytes(t, q, "QUIT", "BYE\n")
	expectEOF(t, q, "after QUIT")
}

// TestLineTooLong pins the line limit: a line of 65536 bytes, its
// newline included, is served; a longer one is answered with an ERR
// line, after which the server closes the connection, because the rest
// of that line cannot be told apart from the requests behind it.
func TestLineTooLong(t *testing.T) {
	s, h := newTestServer()
	defer h.Close()
	addr := serveTCP(t, s)

	c := dialTCP(t, addr)
	longest := "SET 1 " + strings.Repeat("x", 65536-len("SET 1 \n")) + "\n"
	send(t, c, longest+"GET 2\n")
	expectBytes(t, c, "65536-byte line", "OK\nNOT_FOUND\n")

	c = dialTCP(t, addr)
	go io.WriteString(c, "SET 2 "+strings.Repeat("y", 70_000)+"\nGET 1\n") //nolint:errcheck // the server may close before the write ends
	expectBytes(t, c, "70 000-byte line", "ERR line too long (max 65536 bytes)\n")
	expectEOF(t, c, "after the over-long line")

	if got, _ := s.exec(h, "GET 2"); got != "NOT_FOUND" {
		t.Fatalf("GET 2 after the rejected line = %q", got)
	}
}

// TestReplyAllocs pins what the connection loop's append path
// allocates per request once its reply buffer is warm: at most 2
// allocations for a GET, 12 for a 100-pair SCAN page, 2 for a DEL of an
// absent key and 4 for a SET and DEL of a leaf key. A row of several
// lines runs them in order and counts them together. The server runs
// with the default -optimeout, which a DEL that waits for no grace
// period must not pay for with a timer or a context.
func TestReplyAllocs(t *testing.T) {
	s, h := newTestServer()
	defer h.Close()
	for k := 0; k < 1000; k++ {
		h.Insert(int64(k), fmt.Sprintf("k%07d.g0000001", k))
	}
	buf := make([]byte, 0, maxKeptReply)
	for _, tc := range []struct {
		line string
		max  float64
	}{
		{"GET 500", 2},
		{"SCAN 100 1000 100", 12},
		{"DEL 5000", 2},
		{"SET 5000 k0005000.g0000001\nDEL 5000", 4},
	} {
		lines := strings.Split(tc.line, "\n")
		allocs := testing.AllocsPerRun(200, func() {
			for _, line := range lines {
				buf, _ = s.appendReply(buf[:0], h, line)
			}
		})
		t.Logf("%s: %v allocations", tc.line, allocs)
		if allocs > tc.max {
			t.Errorf("%s: %v allocations per request, want at most %v", tc.line, allocs, tc.max)
		}
	}
}

var execSink string

// BenchmarkExecTCP times one TCP request through exec on a one-shard
// server holding 1e5 keys (the even keys of [0, 2e5), inserted in a
// seeded random order, 17-byte values): a GET hit, a GET miss, a SET of
// an existing key (answered EXISTS, so the tree does not change), a DEL
// of an absent key under the default -optimeout (answered NOT_FOUND) and
// a 100-pair SCAN page.
//
//	go test -run '^$' -bench BenchmarkExecTCP -benchmem ./examples/kvserver
func BenchmarkExecTCP(b *testing.B) {
	const resident = 100_000
	cfg := defaultKVConfig()
	cfg.demo = false
	s := newServer(cfg)
	defer s.close()
	h := s.newHandle()
	defer h.Close()
	rng := rand.New(rand.NewPCG(1, 2))
	for _, k := range rng.Perm(resident) {
		if !h.Insert(int64(2*k), fmt.Sprintf("k%07d.g0000001", 2*k)) {
			b.Fatalf("insert %d", 2*k)
		}
	}
	lines := func(format string, key func() int) []string {
		out := make([]string, 4096)
		for i := range out {
			out[i] = fmt.Sprintf(format, key())
		}
		return out
	}
	for _, bc := range []struct {
		name  string
		lines []string
		want  string // reply prefix
	}{
		{"GET-hit", lines("GET %d", func() int { return 2 * rng.IntN(resident) }), "VALUE k"},
		{"GET-miss", lines("GET %d", func() int { return 2*rng.IntN(resident) + 1 }), "NOT_FOUND"},
		{"SET-existing", lines("SET %d x", func() int { return 2 * rng.IntN(resident) }), "EXISTS"},
		{"DEL-miss", lines("DEL %d", func() int { return 2*rng.IntN(resident) + 1 }), "NOT_FOUND"},
		{"SCAN-100", lines("SCAN %d 200000 100", func() int { return 2 * rng.IntN(resident-100) }), "KEY "},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if got, _ := s.exec(h, bc.lines[0]); !strings.HasPrefix(got, bc.want) {
				b.Fatalf("%s = %.40q, want prefix %q", bc.lines[0], got, bc.want)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				execSink, _ = s.exec(h, bc.lines[i%len(bc.lines)])
			}
		})
	}
}
