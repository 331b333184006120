package replication

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/geostore"
	"repro/internal/retry"
	"repro/internal/storage"
	"repro/internal/storage/vfs"
)

// ErrReBootstrap is the sticky failure a replica parks on when its
// cursor no longer exists on the primary (compaction pruned it while
// the replica was down or degraded). Recovery is operational: wipe the
// replica's data directory and restart, so Bootstrap pulls a fresh
// snapshot.
var ErrReBootstrap = errors.New("replication: cursor pruned on primary; wipe the replica data directory and restart to re-bootstrap")

// ErrStaleEpoch is the sticky failure for split-brain fencing: the
// stream presented an epoch below the highest this replica has durably
// observed, meaning the node on the other end is a demoted primary.
var ErrStaleEpoch = errors.New("replication: stream epoch below local fence (stale primary rejected)")

// errSealed marks a graceful primary shutdown (retryable).
var errSealed = errors.New("replication: stream sealed by primary shutdown")

// ReplicaConfig configures the replica-side applier.
type ReplicaConfig struct {
	// PrimaryURL is the primary's base URL (scheme://host:port).
	PrimaryURL string
	// Token is the shared replication token.
	Token string
	// Store is the replica's geo store; batches apply through its
	// normal Add path so geometries index and the attached journal
	// makes them locally durable.
	Store *geostore.Store
	// DB is the replica's own storage (already Recovered, journal
	// attached to Store). The applier syncs it before persisting the
	// cursor, so the cursor never claims more than local disk holds.
	DB *storage.DB
	// FS is the filesystem for the REPLICA state file; nil means
	// DB.FS(), keeping state behind the same fault-injection seam.
	FS vfs.FS
	// Client issues the streaming requests; nil uses a client without
	// timeouts (the stream is endless by design).
	Client *http.Client
	// Backoff paces reconnects after retryable failures. Zero-valued
	// fields get the standard 1s→5min ±20% schedule.
	Backoff retry.Backoff
	// CursorSyncEvery persists the applied cursor every n batch frames
	// (default 64). Epoch changes, sealed frames, and Stop always
	// persist immediately.
	CursorSyncEvery int
	// Metrics instruments the apply side; nil disables.
	Metrics *Metrics
	// Logger receives lifecycle events; nil discards.
	Logger *slog.Logger
}

// Status is the replica's health snapshot, served on /healthz and used
// for lag gating.
type Status struct {
	Primary    string
	Connected  bool
	Epoch      uint64
	Cursor     storage.Cursor
	LagBytes   int64
	LagSeconds float64
	// Err is the sticky failure that parked replication, nil while
	// streaming (or retrying a retryable failure).
	Err error
}

// Replica follows a primary's WAL stream and applies it to the local
// store. Create with NewReplica, drive with Run (blocking), stop with
// Stop. The replica serves reads the whole time — staleness is
// reported, never a reason to refuse a query.
type Replica struct {
	cfg  ReplicaConfig
	fsys vfs.FS

	mu           sync.Mutex
	state        State
	sinceSave    int
	connected    bool
	sticky       error
	lagBytes     int64
	lastCaughtUp time.Time
	started      time.Time
	body         io.Closer // current stream body, closed by Stop

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewReplica loads the replica's persisted stream state and prepares
// the applier. The DB must already be recovered with the journal
// attached to Store.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Store == nil || cfg.DB == nil {
		panic("replication: ReplicaConfig.Store and DB are required")
	}
	if cfg.PrimaryURL == "" {
		return nil, fmt.Errorf("replication: ReplicaConfig.PrimaryURL is required")
	}
	if cfg.FS == nil {
		cfg.FS = cfg.DB.FS()
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.CursorSyncEvery <= 0 {
		cfg.CursorSyncEvery = 64
	}
	if cfg.Backoff.Base == 0 {
		cfg.Backoff = retry.Backoff{Base: time.Second, Cap: 5 * time.Minute, Jitter: 0.2}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	r := &Replica{
		cfg:     cfg,
		fsys:    cfg.FS,
		started: time.Now(),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	st, ok, err := loadState(cfg.FS, cfg.DB.Dir())
	if err != nil {
		return nil, err
	}
	if !ok {
		// No usable stream position. Streaming "from the beginning"
		// instead would silently miss whatever prefix the primary has
		// compacted into its snapshot — the beginning of the WAL moves.
		// Every legitimate replica has a state file (Bootstrap writes the
		// first one), so a missing or corrupt one means the directory
		// must be re-seeded.
		return nil, fmt.Errorf("replication: no usable REPLICA state in %s (bootstrap a fresh directory first): %w",
			cfg.DB.Dir(), ErrReBootstrap)
	}
	r.state = st
	// The MANIFEST and the state file double-book the epoch fence; take
	// the higher of the two and make both agree, so neither a lost
	// state file nor a lost manifest lowers the fence alone.
	if r.state.Epoch < cfg.DB.Epoch() {
		r.state.Epoch = cfg.DB.Epoch()
	} else if err := cfg.DB.EnsureEpoch(r.state.Epoch); err != nil {
		return nil, err
	}
	cfg.Metrics.attachReplicaStatus(r.Status)
	return r, nil
}

// Status returns the replica's current health snapshot.
func (r *Replica) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Status{
		Primary:   r.cfg.PrimaryURL,
		Connected: r.connected,
		Epoch:     r.state.Epoch,
		Cursor:    r.state.Cursor,
		LagBytes:  r.lagBytes,
		Err:       r.sticky,
	}
	since := r.lastCaughtUp
	if since.IsZero() {
		since = r.started
	}
	s.LagSeconds = time.Since(since).Seconds()
	return s
}

// Run streams from the primary until Stop is called or a sticky
// failure parks replication. It blocks; run it in a goroutine. After
// Run returns the replica keeps serving (stale) reads — Status
// explains why the stream stopped.
func (r *Replica) Run() {
	defer close(r.done)
	defer r.persist() // crash-consistent cursor even on sticky exits
	bo := r.cfg.Backoff
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		err := r.streamOnce()
		r.mu.Lock()
		r.connected = false
		r.body = nil
		r.mu.Unlock()
		switch {
		case err == nil:
			return // Stop closed the stream
		case isSticky(err):
			r.mu.Lock()
			if r.sticky == nil {
				r.sticky = err
			}
			r.mu.Unlock()
			r.cfg.Logger.Error("replication: sticky failure; replica degraded", "err", err)
			return
		}
		delay := bo.Next()
		r.cfg.Metrics.reconnect()
		r.cfg.Logger.Warn("replication: stream lost; reconnecting",
			"err", err, "attempt", bo.Attempts(), "backoff", delay)
		select {
		case <-r.stop:
			return
		case <-time.After(delay):
		}
	}
}

// Stop terminates the stream, waits for Run to return, and persists
// the applied cursor so a restart resumes instead of re-applying.
func (r *Replica) Stop() {
	r.once.Do(func() {
		close(r.stop)
		r.mu.Lock()
		body := r.body
		r.mu.Unlock()
		if body != nil {
			// Unblock the frame read; the error it surfaces is routed to
			// the stop path, not classified.
			if err := body.Close(); err != nil {
				r.cfg.Logger.Debug("replication: closing stream body", "err", err)
			}
		}
	})
	<-r.done
}

// isSticky classifies failures: sticky ones park the replica (frame
// corruption, split-brain, pruned cursor, auth, local storage);
// everything else is a transient transport problem worth retrying.
func isSticky(err error) bool {
	return errors.Is(err, ErrFrameCorrupt) ||
		errors.Is(err, ErrStaleEpoch) ||
		errors.Is(err, ErrReBootstrap) ||
		errors.Is(err, errAuth) ||
		errors.Is(err, errLocalApply)
}

var (
	errAuth       = errors.New("replication: primary rejected the replication token")
	errLocalApply = errors.New("replication: applying the stream to local storage failed")
)

// streamOnce opens one stream at the current cursor and applies frames
// until it ends. A nil return means Stop ended it.
func (r *Replica) streamOnce() error {
	r.mu.Lock()
	cur := r.state.Cursor
	r.mu.Unlock()

	url := r.cfg.PrimaryURL + "/replication/wal"
	if cur != (storage.Cursor{}) {
		url += "?cursor=" + cur.String()
	}
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Replication-Token", r.cfg.Token)
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		if r.stopped() {
			return nil
		}
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusUnauthorized, http.StatusForbidden:
		return errAuth
	case http.StatusGone:
		return ErrReBootstrap
	default:
		return fmt.Errorf("replication: primary answered %s", resp.Status)
	}

	r.mu.Lock()
	r.body = resp.Body
	r.mu.Unlock()
	r.cfg.Logger.Info("replication: stream connected", "cursor", cur.String())

	br := bufio.NewReaderSize(resp.Body, 1<<16)
	for {
		fr, err := readFrame(br)
		if err != nil {
			if r.stopped() {
				return nil
			}
			if errors.Is(err, ErrFrameCorrupt) {
				return err
			}
			return fmt.Errorf("replication: stream read: %w", err)
		}
		if err := r.applyFrame(fr); err != nil {
			if errors.Is(err, errSealed) {
				r.cfg.Logger.Info("replication: primary sealed the stream (shutdown)")
				return errSealed
			}
			return err
		}
		if r.stopped() {
			return nil
		}
	}
}

func (r *Replica) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

// applyFrame fences, applies, and acknowledges one frame.
func (r *Replica) applyFrame(fr Frame) error {
	r.mu.Lock()
	fence := r.state.Epoch
	r.mu.Unlock()
	if fr.Epoch < fence {
		r.cfg.Metrics.epochRejected()
		return fmt.Errorf("%w: stream epoch %d, local fence %d", ErrStaleEpoch, fr.Epoch, fence)
	}
	if fr.Epoch > fence {
		// A new primary generation: raise the fence durably (manifest +
		// state file) before applying anything it sent, so a crash
		// cannot forget we followed it.
		if err := r.cfg.DB.EnsureEpoch(fr.Epoch); err != nil {
			return fmt.Errorf("%w: %w", errLocalApply, err)
		}
		r.mu.Lock()
		r.state.Epoch = fr.Epoch
		r.mu.Unlock()
		if err := r.persist(); err != nil {
			return fmt.Errorf("%w: %w", errLocalApply, err)
		}
		r.cfg.Logger.Info("replication: following new primary epoch", "epoch", fr.Epoch)
	}

	switch fr.Type {
	case FrameBatch:
		batch, err := storage.DecodeBatch(fr.Body)
		if err != nil {
			return fmt.Errorf("%w: batch payload: %w", ErrFrameCorrupt, err)
		}
		for _, t := range batch {
			if err := r.cfg.Store.Add(t.S, t.P, t.O); err != nil {
				return fmt.Errorf("%w: %w", errLocalApply, err)
			}
		}
		if err := r.cfg.Store.RDF().CommitJournal(); err != nil {
			// The local WAL refused the batch; advancing the cursor now
			// would drop it forever (the journal silently discards writes
			// once broken). Park sticky instead.
			return fmt.Errorf("%w: %w", errLocalApply, err)
		}
		r.mu.Lock()
		r.state.Cursor = fr.Cursor
		r.sinceSave++
		save := r.sinceSave >= r.cfg.CursorSyncEvery
		r.mu.Unlock()
		r.cfg.Metrics.applied(len(batch))
		if save {
			if err := r.persist(); err != nil {
				return fmt.Errorf("%w: %w", errLocalApply, err)
			}
		}
	case FrameHeartbeat:
		lag, n := uvarintFrom(fr.Body)
		r.mu.Lock()
		// Connected means the primary has spoken on this stream: the feed
		// heartbeats as soon as the stream is caught up, and only frames
		// raise the epoch fence, so an HTTP 200 alone proves neither.
		r.connected = true
		if n > 0 {
			r.lagBytes = int64(lag)
			if lag == 0 {
				r.lastCaughtUp = time.Now()
			}
		}
		dirty := r.sinceSave > 0
		r.mu.Unlock()
		if dirty {
			// The stream is idle; use the pause to make the cursor durable.
			if err := r.persist(); err != nil {
				return fmt.Errorf("%w: %w", errLocalApply, err)
			}
		}
	case FrameSealed:
		if err := r.persist(); err != nil {
			return fmt.Errorf("%w: %w", errLocalApply, err)
		}
		return errSealed
	case FrameGone:
		return ErrReBootstrap
	default:
		return fmt.Errorf("%w: unknown frame type %d", ErrFrameCorrupt, fr.Type)
	}
	return nil
}

// persist makes the applied prefix durable, then the cursor claiming
// it — in that order, so the REPLICA file never points past what the
// replica's own disk holds.
func (r *Replica) persist() error {
	r.mu.Lock()
	st := r.state
	dirty := r.sinceSave > 0 || st != (State{})
	r.mu.Unlock()
	if !dirty {
		return nil
	}
	if log := r.cfg.DB.Log(); log != nil {
		if err := log.Sync(); err != nil {
			return err
		}
	}
	if err := saveState(r.fsys, r.cfg.DB.Dir(), st); err != nil {
		return err
	}
	r.mu.Lock()
	r.sinceSave = 0
	r.mu.Unlock()
	return nil
}

// uvarintFrom decodes a standalone varint (0, 0 on damage).
func uvarintFrom(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0
	}
	return v, n
}

// Bootstrap initializes a fresh replica data directory from the
// primary's newest snapshot: it downloads the file, verifies it, and
// writes the REPLICA state (epoch + resume cursor) so the subsequent
// storage.Open/Recover boots from exactly the primary's compacted
// prefix. It is a no-op (false, nil) when dir already holds snapshots
// or WAL segments — an existing replica resumes from its own state.
func Bootstrap(client *http.Client, primaryURL, token string, fsys vfs.FS, dir string) (bool, error) {
	if fsys == nil {
		fsys = vfs.OS
	}
	if client == nil {
		client = http.DefaultClient
	}
	for _, pat := range []string{"snap-*.snap", "wal-*.log"} {
		matches, err := fsys.Glob(filepath.Join(dir, pat))
		if err != nil {
			return false, err
		}
		if len(matches) > 0 {
			return false, nil
		}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}

	req, err := http.NewRequest(http.MethodGet, primaryURL+"/replication/snapshot", nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("X-Replication-Token", token)
	resp, err := client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusUnauthorized || resp.StatusCode == http.StatusForbidden {
		return false, errAuth
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		return false, fmt.Errorf("replication: bootstrap: primary answered %s", resp.Status)
	}
	epoch, err := strconv.ParseUint(resp.Header.Get("X-Replication-Epoch"), 10, 64)
	if err != nil {
		return false, fmt.Errorf("replication: bootstrap: bad epoch header: %w", err)
	}
	cursor, err := storage.ParseCursor(resp.Header.Get("X-Replication-Cursor"))
	if err != nil {
		return false, fmt.Errorf("replication: bootstrap: bad cursor header: %w", err)
	}

	if resp.StatusCode == http.StatusOK {
		version, err := strconv.ParseUint(resp.Header.Get("X-Snapshot-Version"), 10, 64)
		if err != nil {
			return false, fmt.Errorf("replication: bootstrap: bad version header: %w", err)
		}
		path := filepath.Join(dir, fmt.Sprintf("snap-%016d.snap", version))
		if err := downloadTo(fsys, dir, path, resp.Body); err != nil {
			return false, err
		}
		if _, err := storage.InspectSnapshotFS(fsys, path); err != nil {
			// A short or damaged download must not become the replica's
			// seed; drop it and let the caller retry.
			if rerr := fsys.Remove(path); rerr != nil {
				return false, fmt.Errorf("replication: bootstrap: %w (and removing the bad file: %v)", err, rerr)
			}
			return false, fmt.Errorf("replication: bootstrap: downloaded snapshot fails verification: %w", err)
		}
	}
	if err := saveState(fsys, dir, State{Epoch: epoch, Cursor: cursor}); err != nil {
		return false, err
	}
	return true, nil
}

// downloadTo streams body into path via tmp + fsync + rename +
// dirsync.
func downloadTo(fsys vfs.FS, dir, path string, body io.Reader) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("replication: bootstrap download: %w", err)
	}
	if _, err := io.Copy(f, body); err != nil {
		closeRemove(fsys, f, tmp)
		return fmt.Errorf("replication: bootstrap download: %w", err)
	}
	if err := f.Sync(); err != nil {
		closeRemove(fsys, f, tmp)
		return fmt.Errorf("replication: bootstrap download: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("replication: bootstrap download: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("replication: bootstrap download: %w", err)
	}
	return fsys.SyncDir(dir)
}
