package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Reference constants: the builder's measured medians of the host probes on
// the host class this benchmark was written on (2 vCPU Xeon 2.1 GHz, go1.24,
// loopback): the reference probe's time and the echo servers' round trips
// per second. A normalised timing is raw x (reference / the probes either
// side of it), so it reads in natural units. They are
// fixed: changing one rescales a gated metric and breaks comparison with
// earlier runs.
const (
	refProbeMs = 780.0

	refUDPEchoQPS  = 165000.0
	refHTTPEchoQPS = 37000.0
)

// memprobe measures the host's memory latency under the contention of the
// moment: two goroutines each follow 1.5M dependent loads round one random
// cycle over a shared 32 MB table. It runs no code of the repository, so a
// change to the program cannot move it; what moves it is the other tenants
// of the host. It is reported beside the results (host.memprobe_ms) and
// divides nothing: sweep times follow it too loosely, and it over-corrects
// them when they do (README.md); refprobe below is what divides them.
type memprobe struct {
	next []uint32
	sink uint32
}

const (
	memprobeWords = 8 << 20 // x4 bytes = 32 MB, well past the last-level cache
	memprobeSteps = 1_500_000
)

func newMemprobe(seed int64) *memprobe {
	// Sattolo's algorithm: a uniformly random permutation with one cycle.
	rng := rand.New(rand.NewSource(seed))
	next := make([]uint32, memprobeWords)
	for i := range next {
		next[i] = uint32(i)
	}
	for i := len(next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return &memprobe{next: next}
}

// run returns the probe's wall time in milliseconds.
func (m *memprobe) run() float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(at uint32) {
			defer wg.Done()
			for i := 0; i < memprobeSteps; i++ {
				at = m.next[at]
			}
			if at == 0 { // keep the chain live; never true twice in a row
				m.sink++
			}
		}(uint32(g * memprobeWords / 2))
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// refprobe is what sweep and set-up timings are divided by: a stand-in with
// the resource profile of a sweep and none of the repository's code. Eight
// workers take jobs from a channel; each builds a small message of strings
// and byte slices, packs it, unpacks it, looks it up in (or adds it to) a
// growing sharded cache, and hands a copy to a collector that keeps one in
// sixteen. Like a cold sweep it allocates an order of magnitude more than it
// retains into a heap that grows from nothing, so the garbage collector marks
// a pointerful heap again and again: the part of a sweep that feels the
// host's memory contention most, and the part short probes (an ALU loop, the
// pointer chase above) do not have. The job count, key space and message
// shape are fixed for the same reason the reference constants are.
const (
	refWorkers  = 8
	refJobs     = 600_000
	refKeyspace = 30_000
)

type refRR struct {
	name string
	typ  uint16
	ttl  uint32
	data []byte
}

type refMsg struct {
	id      uint16
	name    string
	answers []refRR
}

func (m *refMsg) pack() []byte {
	b := make([]byte, 0, 64)
	b = binary.BigEndian.AppendUint16(b, m.id)
	b = append(b, byte(len(m.name)))
	b = append(b, m.name...)
	b = append(b, byte(len(m.answers)))
	for i := range m.answers {
		a := &m.answers[i]
		b = append(b, byte(len(a.name)))
		b = append(b, a.name...)
		b = binary.BigEndian.AppendUint16(b, a.typ)
		b = binary.BigEndian.AppendUint32(b, a.ttl)
		b = append(b, byte(len(a.data)))
		b = append(b, a.data...)
	}
	return b
}

func unpackRefMsg(b []byte) *refMsg {
	m := &refMsg{id: binary.BigEndian.Uint16(b)}
	n := int(b[2])
	m.name = string(b[3 : 3+n])
	b = b[3+n:]
	m.answers = make([]refRR, b[0])
	b = b[1:]
	for i := range m.answers {
		a := &m.answers[i]
		n = int(b[0])
		a.name = string(b[1 : 1+n])
		b = b[1+n:]
		a.typ = binary.BigEndian.Uint16(b)
		a.ttl = binary.BigEndian.Uint32(b[2:])
		n = int(b[6])
		a.data = append([]byte(nil), b[7:7+n]...)
		b = b[7+n:]
	}
	return m
}

// refprobe runs the stand-in over so many jobs and returns its wall time in
// milliseconds and how many messages the collector saw (all of them).
func refprobe(jobs int) (float64, int) {
	const shards = 32
	type shard struct {
		mu sync.Mutex
		m  map[string]*refMsg
	}
	t0 := time.Now()
	cache := make([]*shard, shards)
	for i := range cache {
		cache[i] = &shard{m: map[string]*refMsg{}}
	}
	// 128 deep, both: the feeder and the collector are one goroutine each
	// against eight workers, and must not be what the workers wait for.
	in := make(chan int, 128)
	out := make(chan *refMsg, 128)
	var wg sync.WaitGroup
	for w := 0; w < refWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch [32]byte
			for j := range in {
				k := j % refKeyspace
				name := string(strconv.AppendInt(append(scratch[:0], "host-"...), int64(k), 10)) + ".example.com."
				s := cache[k%shards]
				s.mu.Lock()
				c, ok := s.m[name]
				s.mu.Unlock()
				if !ok {
					c = unpackRefMsg((&refMsg{id: uint16(j), name: name, answers: []refRR{
						{name: name, typ: 1, ttl: 300, data: []byte{10, 0, byte(k >> 8), byte(k)}},
						{name: name, typ: 16, ttl: 300, data: []byte("v=probe reference answer")},
					}}).pack())
					s.mu.Lock()
					s.m[name] = c
					s.mu.Unlock()
				}
				reply := unpackRefMsg(c.pack())
				reply.id = uint16(j)
				out <- reply
			}
		}()
	}
	seen := make(chan int)
	go func() {
		var kept []*refMsg
		n := 0
		for m := range out {
			n++
			if m.id%16 == 0 {
				kept = append(kept, m)
			}
		}
		runtime.KeepAlive(kept)
		seen <- n
	}()
	for j := 0; j < jobs; j++ {
		in <- j
	}
	close(in)
	wg.Wait()
	close(out)
	n := <-seen
	return float64(time.Since(t0).Nanoseconds()) / 1e6, n
}

// serveRefprobe is the benchmark's -refprobe mode: a process of its own that
// runs the stand-in once for every line it reads and answers with the time,
// until its input closes. The probe has a process to itself so that its
// collector's pacing depends on its own heap only — not on how much the
// program under test happens to keep alive, which a change to the program
// moves — and so that it adds nothing to the workload's peak RSS. A short
// unmeasured run comes first: a fresh process's first probe reads a sixth
// faster than every later one.
func serveRefprobe() error {
	runtime.GOMAXPROCS(gomaxprocs)
	refprobe(refJobs / 4)
	in := bufio.NewReader(os.Stdin)
	for {
		if _, err := in.ReadString('\n'); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		runtime.GC()
		t, n := refprobe(refJobs)
		if n != refJobs {
			return fmt.Errorf("refprobe: the collector saw %d of %d messages", n, refJobs)
		}
		if _, err := fmt.Printf("%.4f\n", t); err != nil {
			return err
		}
	}
}

// refClient is the workload's end of that process.
type refClient struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	samples []float64 // every probe of the run
	ended   bool
}

// startRefprobe starts the probe process.
func startRefprobe() (*refClient, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := &refClient{cmd: exec.Command(exe, "-refprobe")}
	c.cmd.Stderr = os.Stderr
	if c.in, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.out = bufio.NewReader(out)
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start refprobe: %w", err)
	}
	return c, nil
}

// run has the process run the probe once, while this process does nothing,
// and returns the probe's wall time in milliseconds.
func (c *refClient) run() (float64, error) {
	if _, err := io.WriteString(c.in, "run\n"); err != nil {
		return 0, fmt.Errorf("refprobe: %w", err)
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("refprobe: %w", err)
	}
	t, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil || t <= 0 {
		return 0, fmt.Errorf("refprobe answered %q", line)
	}
	c.samples = append(c.samples, t)
	return t, nil
}

// close ends the probe process and waits for it.
func (c *refClient) close() error {
	c.ended = true
	_ = c.in.Close() // end of input is the signal; Wait reports how it went
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("refprobe: %w", err)
	}
	return nil
}

// kill is close for the paths that cannot wait for a probe to finish; after
// close it does nothing.
func (c *refClient) kill() {
	if c.ended {
		return
	}
	c.ended = true
	_ = c.cmd.Process.Kill() // it may have exited already
	_ = c.cmd.Wait()         // killed: the exit status says nothing
}

// normalised scales a raw timing by the reference probes run before and
// after it: slow neighbours mean a slow host, and the timing is read down.
func normalised(raw, before, after float64) float64 {
	return raw * refProbeMs / ((before + after) / 2)
}

// echoUDP is the bare loopback UDP server the UDP serve numbers are divided
// by: the same read-copy-spawn-write shape as dnsio.Server with the DNS work
// taken out.
type echoUDP struct {
	pc net.PacketConn
	wg sync.WaitGroup
}

func startEchoUDP() (*echoUDP, error) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoUDP{pc: pc}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		buf := make([]byte, 4096)
		for {
			n, raddr, err := pc.ReadFrom(buf)
			if err != nil {
				return // closed
			}
			pkt := make([]byte, n)
			copy(pkt, buf[:n])
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				_, _ = pc.WriteTo(pkt, raddr) // a lost echo shows as a client timeout
			}()
		}
	}()
	return e, nil
}

func (e *echoUDP) addr() string { return e.pc.LocalAddr().String() }

func (e *echoUDP) close() {
	e.pc.Close()
	e.wg.Wait()
}

// echoPath is where the bare HTTP echo handler sits, beside /dns-query on
// the same listener, so both are reached over the same keep-alive
// connections.
const echoPath = "/echo"

func echoHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 4096))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/dns-message")
	_, _ = w.Write(body)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status")
}
