// The coordinator/worker wire protocol: JSON lines over one TCP connection
// per worker. Frames are small and infrequent (per shard, per server unit),
// so a text protocol costs nothing and keeps the CI smoke logs readable.
//
//	worker → coordinator    hello       plan hash + unit count + identity
//	coordinator → worker    reject      hello mismatch; connection closes
//	coordinator → worker    assign      one shard: range, yield point, dir
//	worker → coordinator    progress    units done / records journaled so far
//	coordinator → worker    yield       lower the shard's effective end —
//	                                    the tail was stolen by another worker
//	worker → coordinator    shard_done  shard finished (or failed: err set)
//	coordinator → worker    shutdown    no work left; drain and exit
//
// A worker owns at most one shard at a time; assign/shard_done alternate on
// the main exchange while yield may arrive at any point during a run.
//
// A frame is one line of at most maxFrame bytes. A peer is anyone who can
// reach the listener, so a longer line is a protocol error that drops the
// connection rather than a value to buffer without limit.
package fleet

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"sync"
)

const (
	// maxFrame caps one frame's line, newline included. Honest frames are a
	// few hundred bytes; the one field of any length is shard_done's Err.
	maxFrame = 64 << 10
	// maxErr clips shard_done's Err on send. Escaped, it stays far below
	// maxFrame, so an honest worker never trips the cap.
	maxErr = 4 << 10
)

// errFrameTooLong is the read error for a line longer than maxFrame.
var errFrameTooLong = errors.New("fleet: frame longer than 64 KiB")

// frame types.
const (
	fHello     = "hello"
	fReject    = "reject"
	fAssign    = "assign"
	fProgress  = "progress"
	fYield     = "yield"
	fShardDone = "shard_done"
	fShutdown  = "shutdown"
)

// frame is every protocol message; Type selects which fields are meaningful.
// Numeric fields deliberately avoid omitempty: Lo=0, Shard=0, and Done=0 are
// all meaningful values.
type frame struct {
	Type string `json:"type"`

	// hello
	Plan        string `json:"plan,omitempty"` // full plan hash, %016x
	Units       int    `json:"units,omitempty"`
	Name        string `json:"name,omitempty"`
	Parallelism int    `json:"parallelism,omitempty"`

	// assign / yield / progress / shard_done
	Shard int `json:"shard"`
	// assign: the shard journal's descriptor range. yield: Hi is the new
	// effective end (units ≥ Hi belong to the thief now).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// assign: the effective sweep end, ≤ the descriptor Hi. They differ when
	// a previously yielded shard is re-issued after its worker died: the
	// journal keeps its original descriptor, the sweep stops at the yield
	// point.
	YieldHi int    `json:"yield_hi,omitempty"`
	Dir     string `json:"dir,omitempty"`

	// progress / shard_done
	Done    int   `json:"done"`
	Records int64 `json:"records"`

	// reject / shard_done
	Reason string `json:"reason,omitempty"`
	Err    string `json:"err,omitempty"`
}

// wire frames one connection: newline-delimited JSON with a write mutex so
// the coordinator can push a yield from the stealer while the serve loop
// replies on the main exchange.
type wire struct {
	conn net.Conn
	wmu  sync.Mutex
	enc  *json.Encoder
	r    *bufio.Reader // sized maxFrame: a line that fills it is too long
}

func newWire(conn net.Conn) *wire {
	return &wire{
		conn: conn,
		enc:  json.NewEncoder(conn),
		r:    bufio.NewReaderSize(conn, maxFrame),
	}
}

func (w *wire) send(f frame) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return w.enc.Encode(f)
}

// read decodes the next line. A line that does not fit the reader's buffer
// is errFrameTooLong; the caller drops the peer, so the rest of it is never
// read.
func (w *wire) read() (frame, error) {
	var f frame
	line, err := w.r.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		err = errFrameTooLong
	}
	if err == nil {
		err = json.Unmarshal(line, &f)
	}
	return f, err
}

func (w *wire) close() { _ = w.conn.Close() }
