package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"runtime"
	"testing"
	"time"
)

// fuzzLineCap is the line cap FuzzServeLines serves under: small enough
// that fuzzed inputs cross it, where the production cap (MaxLineBytes)
// would need megabyte inputs.
const fuzzLineCap = 256

// memConn is a net.Conn over an in-memory request stream: reads drain in,
// writes collect in out, deadlines are accepted and ignored.
type memConn struct {
	net.Conn
	in     *bytes.Reader
	out    bytes.Buffer
	closed bool
}

func (c *memConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *memConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *memConn) Close() error                     { c.closed = true; return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// echoLen answers each line with its length, so the response stream can be
// checked against the expected line sequence.
func echoLen(line []byte) any { return struct{ N int }{len(line)} }

// expectedLens models the framer: lines split on '\n' with a trailing '\r'
// dropped, empty lines skipped, and the first line that does not fit the
// cap together with its newline ending the connection.
func expectedLens(input []byte, lineCap int) []int {
	var want []int
	for len(input) > 0 {
		line := input
		i := bytes.IndexByte(input, '\n')
		if i >= 0 {
			line, input = input[:i], input[i+1:]
		} else {
			input = nil
		}
		if len(line)+1 > lineCap {
			break
		}
		line = bytes.TrimSuffix(line, []byte("\r"))
		if len(line) > 0 {
			want = append(want, len(line))
		}
	}
	return want
}

func expectLens(t *testing.T, sc *bufio.Scanner, want []int) {
	t.Helper()
	var got []int
	for sc.Scan() {
		var r struct{ N int }
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("response line %q: %v", sc.Bytes(), err)
		}
		got = append(got, r.N)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d response lines %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("response %d answers a %d-byte line, want %d", i, got[i], want[i])
		}
	}
}

// FuzzServeLines drives one connection of the shared framer with arbitrary
// bytes. Invariants: serving never panics; every non-empty line up to the
// cap gets exactly one response line, in order; a line over the cap ends
// the connection; and serving allocates on the order of the cap plus a
// constant per answered line, never in proportion to an oversized line.
// The seed corpus lives in testdata/fuzz/FuzzServeLines.
func FuzzServeLines(f *testing.F) {
	f.Fuzz(func(t *testing.T, input []byte) {
		s := newServer(ServerConfig{Name: "fuzz", Handle: echoLen}, fuzzLineCap)
		conn := &memConn{in: bytes.NewReader(input)}
		want := expectedLens(input, fuzzLineCap)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.serve(conn)
		runtime.ReadMemStats(&after)

		if !conn.closed {
			t.Fatal("connection left open")
		}
		expectLens(t, bufio.NewScanner(&conn.out), want)
		const perLine, slack = 512, 16 << 10
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(2*fuzzLineCap+perLine*len(want)+slack) {
			t.Fatalf("serving %d input bytes (%d answered lines) allocated %d bytes", len(input), len(want), alloc)
		}
	})
}
