package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"
)

// kvConn is one client connection speaking kvserver's line protocol.
// The protocol allows one outstanding request per connection, so every
// call below writes one request and reads its whole reply.
type kvConn struct {
	c   net.Conn
	rd  *bufio.Reader
	req []byte
	val []byte
}

func dialKV(addr string) (*kvConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &kvConn{c: c, rd: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (k *kvConn) Close() error { return k.c.Close() }

// deadline bounds every read and write until t, so a hung server turns
// into a transport error instead of a hung benchmark.
func (k *kvConn) deadline(t time.Time) error { return k.c.SetDeadline(t) }

// request sends k.req and returns the single-line reply without its
// newline. The slice is valid until the next read.
func (k *kvConn) request() ([]byte, error) {
	if _, err := k.c.Write(k.req); err != nil {
		return nil, err
	}
	return k.readLine()
}

func (k *kvConn) readLine() ([]byte, error) {
	line, err := k.rd.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return line[:len(line)-1], nil
}

func (k *kvConn) setReq(verb string, key int64) {
	k.req = append(k.req[:0], verb...)
	k.req = append(k.req, ' ')
	k.req = strconv.AppendInt(k.req, key, 10)
}

// outcome classifies one reply.
type outcome int

const (
	okReply    outcome = iota
	wrongReply         // contradicts the model (ERR included): the program is incorrect
	shedReply          // BUSY or TIMEOUT: refused, counted as failed
	lostReply          // transport error: the op's fate is unknown
)

var (
	replyOK       = []byte("OK")
	replyExists   = []byte("EXISTS")
	replyNotFound = []byte("NOT_FOUND")
	replyValue    = []byte("VALUE ")
	replyBusy     = []byte("BUSY")
	replyTimeout  = []byte("TIMEOUT")
)

func refused(line []byte) bool {
	return bytes.HasPrefix(line, replyBusy) || bytes.HasPrefix(line, replyTimeout)
}

// get reads key and checks the value against the model.
func (k *kvConn) get(m *model, key int64) (outcome, error) {
	k.setReq("GET", key)
	k.req = append(k.req, '\n')
	line, err := k.request()
	if err != nil {
		return lostReply, err
	}
	i := m.idx(key)
	if m.unknown[i] {
		return okReply, nil
	}
	if m.present[i] {
		k.val = appendValue(append(k.val[:0], replyValue...), key, m.gen[i])
		if bytes.Equal(line, k.val) {
			return okReply, nil
		}
	} else if bytes.Equal(line, replyNotFound) {
		return okReply, nil
	}
	return wrongReply, fmt.Errorf("GET %d: got %q, model has present=%v gen=%d", key, line, m.present[i], m.gen[i])
}

// set inserts key with its next generation's value (insert-if-absent:
// EXISTS when present) and updates the model.
func (k *kvConn) set(m *model, key int64) (outcome, error) {
	i := m.idx(key)
	k.setReq("SET", key)
	k.req = append(k.req, ' ')
	k.req = appendValue(k.req, key, m.gen[i]+1)
	k.req = append(k.req, '\n')
	line, err := k.request()
	if err != nil {
		m.unknown[i] = true
		return lostReply, err
	}
	if refused(line) {
		return shedReply, nil
	}
	switch {
	case m.unknown[i]:
		return okReply, nil
	case !m.present[i] && bytes.Equal(line, replyOK):
		m.present[i] = true
		m.gen[i]++
		return okReply, nil
	case m.present[i] && bytes.Equal(line, replyExists):
		return okReply, nil
	}
	m.unknown[i] = true
	return wrongReply, fmt.Errorf("SET %d: got %q, model has present=%v", key, line, m.present[i])
}

// del deletes key and updates the model.
func (k *kvConn) del(m *model, key int64) (outcome, error) {
	i := m.idx(key)
	k.setReq("DEL", key)
	k.req = append(k.req, '\n')
	line, err := k.request()
	if err != nil {
		m.unknown[i] = true
		return lostReply, err
	}
	if refused(line) {
		return shedReply, nil
	}
	switch {
	case m.unknown[i]:
		return okReply, nil
	case m.present[i] && bytes.Equal(line, replyOK):
		m.present[i] = false
		return okReply, nil
	case !m.present[i] && bytes.Equal(line, replyNotFound):
		return okReply, nil
	}
	m.unknown[i] = true
	return wrongReply, fmt.Errorf("DEL %d: got %q, model has present=%v", key, line, m.present[i])
}

// scan sends SCAN lo hi limit and checks the reply: keys strictly
// ascending inside [lo, hi), at most limit of them, END matching the
// count, every value well formed for its key, and — over the interval
// the reply covers — the keys of every model in models exactly as the
// model has them (a connection's own keys cannot change under its own
// SCAN; passing both models is the quiescent full-state check). It
// returns the number of pairs and the covered upper bound: the last key
// + 1 when the limit cut the scan short, hi otherwise.
func (k *kvConn) scan(models []*model, lo, hi int64, limit int) (pairs int, covered int64, err error) {
	k.req = append(k.req[:0], "SCAN "...)
	k.req = strconv.AppendInt(k.req, lo, 10)
	k.req = append(k.req, ' ')
	k.req = strconv.AppendInt(k.req, hi, 10)
	k.req = append(k.req, ' ')
	k.req = strconv.AppendInt(k.req, int64(limit), 10)
	k.req = append(k.req, '\n')
	if _, err := k.c.Write(k.req); err != nil {
		return 0, 0, err
	}
	next := lo // every key in [lo, next) has been reconciled with the models
	var wrong error
	note := func(e error) {
		if wrong == nil {
			wrong = e
		}
	}
	// absentUpTo checks that no modelled key in [next, end) is present:
	// the reply skipped over them.
	absentUpTo := func(end int64) {
		for key := next; key < end; key++ {
			for _, m := range models {
				if key%numConns != int64(m.conn) || !m.covers(key) {
					continue
				}
				if i := m.idx(key); m.present[i] && !m.unknown[i] {
					note(fmt.Errorf("SCAN %d %d %d: key %d is present but missing from the reply", lo, hi, limit, key))
				}
			}
		}
	}
	for {
		line, err := k.readLine()
		if err != nil {
			return pairs, 0, err
		}
		if rest, ok := bytes.CutPrefix(line, []byte("END ")); ok {
			n, perr := strconv.Atoi(string(rest))
			if perr != nil || n != pairs {
				note(fmt.Errorf("SCAN %d %d %d: %d pairs then %q", lo, hi, limit, pairs, line))
			}
			covered = hi
			if pairs == limit {
				covered = next
			}
			absentUpTo(covered)
			if wrong != nil {
				return pairs, covered, &checkError{wrong}
			}
			return pairs, covered, nil
		}
		rest, ok := bytes.CutPrefix(line, []byte("KEY "))
		sp := bytes.IndexByte(rest, ' ')
		if !ok || sp < 0 {
			note(fmt.Errorf("SCAN %d %d %d: unexpected line %q", lo, hi, limit, line))
			continue
		}
		key, perr := strconv.ParseInt(string(rest[:sp]), 10, 64)
		v := rest[sp+1:]
		pairs++
		switch {
		case perr != nil:
			note(fmt.Errorf("SCAN %d %d %d: bad key in %q", lo, hi, limit, line))
			continue
		case key < next || key >= hi:
			note(fmt.Errorf("SCAN %d %d %d: key %d out of order or out of range (expected ≥ %d)", lo, hi, limit, key, next))
			continue
		case pairs > limit:
			note(fmt.Errorf("SCAN %d %d %d: more than %d pairs", lo, hi, limit, limit))
		case !valueKeyMatches(v, key):
			note(fmt.Errorf("SCAN %d %d %d: value %q does not belong to key %d", lo, hi, limit, v, key))
		}
		absentUpTo(key)
		for _, m := range models {
			if key%numConns != int64(m.conn) {
				continue
			}
			if !m.covers(key) {
				note(fmt.Errorf("SCAN %d %d %d: key %d was never written", lo, hi, limit, key))
				continue
			}
			i := m.idx(key)
			if m.unknown[i] {
				continue
			}
			k.val = appendValue(k.val[:0], key, m.gen[i])
			if !m.present[i] || !bytes.Equal(v, k.val) {
				note(fmt.Errorf("SCAN %d %d %d: pair %d=%q, model has present=%v gen=%d", lo, hi, limit, key, v, m.present[i], m.gen[i]))
			}
		}
		next = key + 1
	}
}

// checkError marks a reply that contradicts the model, as opposed to a
// transport failure.
type checkError struct{ err error }

func (e *checkError) Error() string { return e.err.Error() }
func (e *checkError) Unwrap() error { return e.err }

func isCheckError(err error) bool {
	var ce *checkError
	return errors.As(err, &ce)
}
