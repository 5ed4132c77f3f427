package server

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"doppel"
	"doppel/internal/metrics"
)

// Handler executes one named procedure inside a transaction. The
// returned Arg is sent back to the client on commit; return Nil for
// void procedures.
//
// The args slice is valid only until the transaction completes: the
// server decodes every request into a pooled frame and reuses its
// argument array for a later request. Copy the slice (not the values)
// to keep it longer. Byte-string values are the handler's own — each
// request's copy — so storing args[i].Bytes() is safe.
type Handler func(tx doppel.Tx, args []Arg) (Arg, error)

// Backend is the database surface the server drives. Both *doppel.DB
// and *doppel.Cluster satisfy it; the server is indifferent to whether
// requests land on one worker pool or are routed across shards.
type Backend interface {
	ExecAsync(fn doppel.TxFunc, done func(error))
}

// Options tunes a Server. The zero value means defaults.
type Options struct {
	// MaxInFlight bounds how many requests from one connection execute
	// concurrently; further requests wait in the kernel socket buffer.
	// 0 means 128.
	MaxInFlight int
	// MaxServerInFlight bounds transactional requests executing across
	// all connections. At the cap further requests are shed immediately
	// with ErrOverloaded instead of queueing behind the database workers,
	// which keeps latency bounded for the requests that are admitted.
	// 0 means unbounded (no shedding). Direct handlers are exempt.
	MaxServerInFlight int
	// FlushEvery is how long the response flusher waits for more
	// completions before flushing a batch. 0 flushes as soon as the
	// response queue goes idle, which keeps latency minimal; a small
	// interval (e.g. 100µs) trades latency for larger batches.
	FlushEvery time.Duration
	// MaxFrame bounds the payload of one frame in either direction;
	// oversized frames are rejected before allocation and the
	// connection is dropped. 0 means DefaultMaxFrame (1 MiB).
	MaxFrame int
	// ReadTimeout disconnects a connection that delivers no request for
	// this long — a stalled or half-open peer — without affecting other
	// connections. It is an idle timeout: a healthy quiet client must
	// reconnect or stay within it. 0 means never.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response batch write; a peer that stops
	// draining its socket for this long is disconnected. 0 means never
	// (the 32 MiB pending-byte cap still applies).
	WriteTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 128
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	if o.MaxFrame > 1<<31 {
		o.MaxFrame = 1 << 31 // frame headers are uint32; larger would wrap
	}
	return o
}

// Server serves registered procedures over TCP on top of a Doppel
// database.
type Server struct {
	db    Backend
	opts  Options
	stats *metrics.RPCStats

	mu       sync.RWMutex
	handlers map[string]Handler
	directs  map[string]DirectHandler

	inflight chan struct{} // global transactional budget; nil = unbounded
	sheds    atomic.Uint64

	sessMu    sync.Mutex
	sessions  map[string]*session
	sessOrder []string

	lis    net.Listener
	connWG sync.WaitGroup
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	closed atomic.Bool
}

// DirectHandler executes one named procedure outside the transactional
// worker pool, on its own goroutine. Use it for control-plane calls
// that read server or replica state — possibly blocking (a catch-up
// wait) — without consuming a database worker. Direct handlers are
// exempt from the MaxServerInFlight budget but still count against the
// connection's MaxInFlight.
type DirectHandler func(args []Arg) (Arg, error)

// New returns a server over db with default Options.
func New(db Backend) *Server { return NewWithOptions(db, Options{}) }

// NewWithOptions returns a server over db with explicit tuning.
func NewWithOptions(db Backend, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		db:       db,
		opts:     opts,
		stats:    metrics.NewRPCStats(),
		handlers: map[string]Handler{},
		directs:  map[string]DirectHandler{},
		sessions: map[string]*session{},
		conns:    map[net.Conn]struct{}{},
	}
	if opts.MaxServerInFlight > 0 {
		s.inflight = make(chan struct{}, opts.MaxServerInFlight)
	}
	return s
}

// Register installs a procedure under name, replacing any previous one.
func (s *Server) Register(name string, h Handler) {
	s.mu.Lock()
	s.handlers[name] = h
	s.mu.Unlock()
}

// RegisterDirect installs a non-transactional procedure under name,
// replacing any previous handler (direct or transactional) of that
// name.
func (s *Server) RegisterDirect(name string, h DirectHandler) {
	s.mu.Lock()
	s.directs[name] = h
	delete(s.handlers, name)
	s.mu.Unlock()
}

// Sheds reports how many requests were rejected with ErrOverloaded
// because the MaxServerInFlight budget was exhausted.
func (s *Server) Sheds() uint64 { return s.sheds.Load() }

// session returns the dedup session for token, creating it (and
// evicting the oldest beyond sessionCap) as needed.
func (s *Server) session(token string) *session {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if sess, ok := s.sessions[token]; ok {
		return sess
	}
	if len(s.sessOrder) >= sessionCap {
		oldest := s.sessOrder[0]
		s.sessOrder = s.sessOrder[1:]
		delete(s.sessions, oldest)
	}
	sess := newSession()
	s.sessions[token] = sess
	s.sessOrder = append(s.sessOrder, token)
	return sess
}

// Stats returns the server's request accounting: total requests served,
// how many failed, and a request latency histogram (nanoseconds from
// decode to response enqueue).
func (s *Server) Stats() (requests, errors uint64, latency *metrics.Hist) {
	return s.stats.Snapshot()
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:7777")
// and returns the bound address. Serving happens on background
// goroutines until Close.
func (s *Server) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ServeListener(lis)
	return lis.Addr().String(), nil
}

// ServeListener accepts from a listener the caller built — the hook for
// interposing a wrapper (TLS, a fault injector) between the network and
// the server. Serving happens on background goroutines until Close or
// Drain, which close lis.
func (s *Server) ServeListener(lis net.Listener) {
	s.lis = lis
	s.connWG.Add(1)
	go s.acceptLoop()
}

func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.connMu.Lock()
		if s.closed.Load() {
			s.connMu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.serveConn(conn)
			s.connMu.Lock()
			delete(s.conns, conn)
			s.connMu.Unlock()
			conn.Close()
		}()
	}
}

// serveConn pumps one client connection: the read loop decodes requests
// and fans each straight into the database's worker pool via ExecAsync
// (no goroutine per request), while a frameWriter streams completions
// back as transactions commit — possibly out of request order. The
// connection's pool of request frames bounds its in-flight requests;
// response sends never block, so a completion callback can never stall
// a database worker on a slow client.
func (s *Server) serveConn(conn net.Conn) {
	c := &serverConn{
		s:    s,
		conn: conn,
		fw: startFrameWriterCfg(conn, frameWriterConfig{
			flushEvery:   s.opts.FlushEvery,
			conn:         conn,
			writeTimeout: s.opts.WriteTimeout,
			// A write timeout or broken pipe means the peer is gone; close
			// so the read loop below stops serving it.
			onBroken: func() { _ = conn.Close() },
		}),
		fr:   newFrameReader(conn, s.opts.MaxFrame),
		free: make(chan *reqFrame, s.opts.MaxInFlight),
	}
	c.sendCached = c.sendOrDrop
	// Stop on EOF, peer reset, stall, oversized frame or corrupt stream
	// (nothing after it can be trusted) — and, when draining, before
	// decoding anything new; then flush what is in flight.
	for !s.closed.Load() && c.serveNext() {
	}
	c.wg.Wait()
	c.fw.close()
}

// serverConn is one client connection's serving state, shared by its
// read loop and the completions of its in-flight requests.
type serverConn struct {
	s    *Server
	conn net.Conn
	fw   *frameWriter
	fr   *frameReader
	sess *session // bound by the session procedure; read loop only
	argv [8]Arg   // decode scratch, copied into a frame on dispatch

	// free holds request frames whose requests completed. Its capacity
	// is MaxInFlight: frames are created lazily up to it, after which a
	// new request waits for a completion to recycle one.
	free   chan *reqFrame
	frames int // frames created; read loop only

	wg         sync.WaitGroup // in-flight requests
	sendCached func([]byte)   // sendOrDrop bound once, for session waiters
}

// reqFrame is the pooled state of one in-flight request: everything its
// transaction body and completion need, bound once when the frame is
// created, so dispatching a transactional request allocates nothing.
// The read loop fills a frame and hands it to the database; the frame
// returns to its connection's pool only after its completion ran.
type reqFrame struct {
	c      *serverConn
	id     uint64
	h      Handler
	d      DirectHandler
	sess   *session
	argv   [4]Arg // backing array for args
	args   []Arg
	result Arg
	start  time.Time
	body   doppel.TxFunc // run, bound once
	done   func(error)   // complete, bound once
}

// newReqFrame runs once per frame, not per request; it stays out of
// line so its allocations never appear in serveNext's hot body.
//
//go:noinline
func newReqFrame(c *serverConn) *reqFrame {
	f := &reqFrame{c: c}
	f.body = f.run
	f.done = f.complete
	return f
}

// frame returns a free request frame, creating one while the connection
// is below MaxInFlight and otherwise waiting for a completion.
func (c *serverConn) frame() *reqFrame {
	select {
	case f := <-c.free:
		return f
	default:
	}
	if c.frames < cap(c.free) {
		c.frames++
		return newReqFrame(c)
	}
	return <-c.free
}

// serveNext reads, decodes and dispatches one request. False means the
// connection must be dropped.
//
//doppel:hotpath
func (c *serverConn) serveNext() bool {
	s := c.s
	if t := s.opts.ReadTimeout; t > 0 {
		_ = c.conn.SetReadDeadline(time.Now().Add(t))
	}
	payload, err := c.fr.next()
	if err != nil {
		return false
	}
	id, name, args, err := decodeRequest(payload, c.argv[:0])
	if err != nil {
		return false
	}
	if string(name) == sessionProc {
		c.bindSession(args)
		return c.fw.sendResponse(id, Nil, nil, s.opts.MaxFrame)
	}
	s.mu.RLock()
	d := s.directs[string(name)]
	var h Handler
	if d == nil {
		h = s.handlers[string(name)]
	}
	s.mu.RUnlock()
	if d == nil && h == nil {
		s.stats.RecordError()
		return c.fw.send(unknownProcResponse(id, name))
	}
	if c.sess != nil {
		resp, dup := c.sess.claim(id, c.sendCached)
		if dup {
			// Replay the cached response, or — resp nil — stay parked
			// until the in-flight original completes.
			return resp == nil || c.fw.send(resp)
		}
	}
	if d == nil && s.inflight != nil {
		select {
		case s.inflight <- struct{}{}:
		default:
			// Shed: answer ErrOverloaded now instead of queueing behind
			// saturated workers. Never cache the rejection — the retry
			// must re-execute.
			s.sheds.Add(1)
			s.stats.RecordError()
			if c.sess != nil {
				c.sess.abandon(id)
			}
			return c.fw.sendResponse(id, Nil, doppel.ErrOverloaded, s.opts.MaxFrame)
		}
	}
	f := c.frame() // bounds in-flight requests for this connection
	f.id, f.h, f.d, f.sess = id, h, d, c.sess
	f.args = append(f.argv[:0], args...)
	c.wg.Add(1)
	f.start = time.Now()
	if d != nil {
		c.runDirect(f)
		return true
	}
	s.db.ExecAsync(f.body, f.done)
	return true
}

// bindSession attaches the connection to the dedup session the
// session procedure names.
func (c *serverConn) bindSession(args []Arg) {
	token := ""
	if len(args) > 0 {
		token = string(args[0].Bytes())
	}
	c.sess = c.s.session(token)
}

// unknownProcResponse encodes the reply to a call of an unregistered
// procedure.
func unknownProcResponse(id uint64, name []byte) []byte {
	return appendResponse(nil, id, statusUnknownProc, Nil, string(name))
}

// runDirect executes a direct handler on its own goroutine.
func (c *serverConn) runDirect(f *reqFrame) {
	go func() {
		var err error
		f.result, err = f.d(f.args)
		f.complete(err)
	}()
}

// run is a transactional request's body.
func (f *reqFrame) run(tx doppel.Tx) error {
	var err error
	f.result, err = f.h(tx, f.args)
	return err
}

// complete records and delivers a finished request's response, then
// recycles the frame.
//
//doppel:hotpath
func (f *reqFrame) complete(err error) {
	c := f.c
	s := c.s
	s.stats.Record(time.Since(f.start).Nanoseconds(), err == nil)
	c.deliver(f.sess, f.id, f.result, err)
	if f.d == nil && s.inflight != nil {
		<-s.inflight
	}
	clear(f.argv[:]) // drop byte-string arguments and results
	f.h, f.d, f.sess, f.args, f.result = nil, nil, nil, nil, Nil
	c.free <- f // never blocks: at most cap(free) frames exist
	c.wg.Done()
}

// deliver routes one completed response: through the session (which
// caches its own encoded copy and notifies every parked duplicate,
// including this connection) or encoded straight into the frame writer.
// A send failure means the client stopped draining responses; drop it
// rather than stall a database worker shared by every client.
//
//doppel:hotpath
func (c *serverConn) deliver(sess *session, id uint64, result Arg, err error) {
	if sess != nil {
		sess.complete(id, appendResult(nil, id, result, err, c.s.opts.MaxFrame))
		return
	}
	if !c.fw.sendResponse(id, result, err, c.s.opts.MaxFrame) {
		_ = c.conn.Close()
	}
}

// sendOrDrop queues an encoded response, dropping the connection when
// the client has stopped draining them.
func (c *serverConn) sendOrDrop(resp []byte) {
	if !c.fw.send(resp) {
		_ = c.conn.Close()
	}
}

// Close stops accepting, closes open connections, and waits for
// in-flight requests to finish. In-flight responses may be lost; use
// Drain for a graceful shutdown.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	if s.lis != nil {
		_ = s.lis.Close()
	}
	s.connMu.Lock()
	for conn := range s.conns {
		_ = conn.Close() // unblocks the connection's read loop
	}
	s.connMu.Unlock()
	s.connWG.Wait()
}

// Drain shuts down gracefully: stop accepting, stop reading further
// requests, finish every in-flight request and flush its response, then
// close the connections. Connections still busy after timeout are cut
// off; timeout 0 waits forever. Drain and Close are each effective at
// most once, in either order.
func (s *Server) Drain(timeout time.Duration) {
	if s.closed.Swap(true) {
		return
	}
	if s.lis != nil {
		_ = s.lis.Close()
	}
	s.connMu.Lock()
	for conn := range s.conns {
		// Expire the read loop: it stops decoding new requests, waits for
		// in-flight ones, flushes their responses, then closes the conn.
		_ = conn.SetReadDeadline(time.Now())
	}
	s.connMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var expired <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-done:
	case <-expired:
		s.connMu.Lock()
		for conn := range s.conns {
			_ = conn.Close()
		}
		s.connMu.Unlock()
		<-done
	}
}
