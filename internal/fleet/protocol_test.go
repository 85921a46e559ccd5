package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// TestFleetDropsOversizedFrame sends the coordinator one 1 MiB line with no
// newline, the frame a hostile peer would use to grow its memory: the
// coordinator must drop that peer after at most maxFrame bytes and go on to
// serve an honest worker to a byte-identical merge.
func TestFleetDropsOversizedFrame(t *testing.T) {
	const seed = 11
	want := baselineRun(t, seed, true)
	var lg logCapture
	co, err := NewCoordinator(newFleetFixture(t, seed, true).cfg, CoordOptions{
		Dir: t.TempDir(), Shards: 2, CheckpointEvery: 8, StealAfter: time.Minute, Logf: lg.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	runErr := make(chan error, 1)
	go func() { runErr <- co.Run(ctx) }()

	conn, err := net.Dial("tcp", co.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() { _, _ = conn.Write(bytes.Repeat([]byte{'x'}, 1<<20)) }()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, err = conn.Read(make([]byte, 1))
	var nerr net.Error
	if err == nil || errors.As(err, &nerr) && nerr.Timeout() {
		t.Fatalf("oversized peer not dropped: read = %v", err)
	}

	wfx := newFleetFixture(t, seed, true)
	if err := RunWorker(ctx, co.Addr().String(), wfx.cfg, WorkerOptions{Name: "w0", Parallelism: 4, CheckpointEvery: 8}); err != nil {
		t.Fatalf("honest worker: %v", err)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("coordinator run: %v", err)
	}
	res, err := co.Finish(ctx)
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	if got := renderRecords(res); got != want {
		t.Errorf("merged report differs after dropping the oversized peer\nlog:\n%s", lg.String())
	}
}

// FuzzWireRead holds the frame reader to its framing on arbitrary bytes: each
// read consumes exactly one newline-terminated line of at most maxFrame bytes
// and decodes it as json.Unmarshal would; a longer line, terminated or not, is
// errFrameTooLong, and a shorter unterminated tail io.EOF. A frame that reads
// cleanly and re-encodes within the cap reads back unchanged.
func FuzzWireRead(f *testing.F) {
	var honest bytes.Buffer
	enc := json.NewEncoder(&honest)
	for _, fr := range []frame{
		{Type: fHello, Plan: "00000000deadbeef", Units: 12, Name: "w0", Parallelism: 4},
		{Type: fAssign, Shard: 1, Lo: 6, Hi: 12, YieldHi: 10, Dir: "shard-1"},
		{Type: fProgress, Shard: 1, Done: 3, Records: 40},
		{Type: fShardDone, Shard: 1, Done: 6, Records: 80, Err: "journal: disk full"},
	} {
		if err := enc.Encode(fr); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(honest.Bytes())
	f.Add([]byte(`{"type":"progress","done":3}`))
	f.Add([]byte("\n\n{}\n{\"type\":1}\n"))
	f.Add(append(bytes.Repeat([]byte{' '}, maxFrame-1), '\n'))
	f.Add(append(bytes.Repeat([]byte{' '}, maxFrame), '\n'))
	f.Fuzz(func(t *testing.T, data []byte) {
		w := &wire{r: bufio.NewReaderSize(bytes.NewReader(data), maxFrame)}
		for off := 0; ; {
			got, err := w.read()
			n := bytes.IndexByte(data[off:], '\n') + 1
			switch {
			case n == 0 && len(data)-off < maxFrame:
				if !errors.Is(err, io.EOF) {
					t.Fatalf("unterminated tail at %d: err = %v, want io.EOF", off, err)
				}
				return
			case n == 0 || n > maxFrame:
				if !errors.Is(err, errFrameTooLong) {
					t.Fatalf("%d-byte line at %d: err = %v, want errFrameTooLong", n, off, err)
				}
				return
			}
			var want frame
			wantErr := json.Unmarshal(data[off:off+n], &want)
			if (err == nil) != (wantErr == nil) || got != want {
				t.Fatalf("line at %d: read (%+v, %v), json.Unmarshal (%+v, %v)", off, got, err, want, wantErr)
			}
			if err != nil {
				return
			}
			var buf bytes.Buffer
			out := &wire{enc: json.NewEncoder(&buf)}
			if err := out.send(got); err != nil {
				t.Fatal(err)
			}
			if buf.Len() <= maxFrame {
				back, err := (&wire{r: bufio.NewReaderSize(&buf, maxFrame)}).read()
				if err != nil || back != got {
					t.Fatalf("frame %+v reads back as (%+v, %v)", got, back, err)
				}
			}
			off += n
		}
	})
}
