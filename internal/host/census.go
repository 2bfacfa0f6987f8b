package host

import "graphene/internal/metrics"

// Census counts what the kernel's tables hold right now — the query behind
// the leak oracle: a workload that creates and retires picoprocesses must
// leave every count where it found it. Two censuses compare with ==.
type Census struct {
	Procs int // live picoprocesses

	// Stream endpoints listed in a live picoprocess's table, each counted
	// once however many picoprocesses co-hold it. Closed endpoints never
	// stay listed (Stream.closeRef); a non-zero StreamsClosed is a bug.
	StreamsOpen       int // open, peer open
	StreamsPeerClosed int // open, peer gone: EOF not yet consumed or acted on
	StreamsClosed     int

	Listeners int // bound names
	Stores    int // bulk-IPC stores not yet closed
	Rings     int // kernel-bypass send rings, revoked ones included

	RetiredRecorders int // exited picoprocesses' flight recorders kept for dumps
	RecorderBytes    int // ring memory of live and retired recorders
	QueueBytes       int // ring memory of the listed endpoints' inbound queues
}

// Census takes the count. It locks one table at a time, so on a busy kernel
// the counts are each exact but not one instant's snapshot.
func (k *Kernel) Census() Census {
	k.mu.Lock()
	c := Census{
		Stores:           len(k.stores),
		Rings:            len(k.rings),
		RetiredRecorders: len(k.retired),
	}
	recs := make([]*FlightRecorder, 0, len(k.retired)+len(k.procs))
	for _, rr := range k.retired {
		recs = append(recs, rr.rec)
	}
	k.mu.Unlock()
	procs := k.Processes()
	c.Procs = len(procs)

	k.streams.mu.Lock()
	c.Listeners = len(k.streams.listeners)
	k.streams.mu.Unlock()

	seen := make(map[*Stream]struct{})
	for _, p := range procs {
		if r := p.rec.Load(); r != nil {
			recs = append(recs, r)
		}
		for _, s := range p.OpenStreams() {
			if _, dup := seen[s]; dup {
				continue
			}
			seen[s] = struct{}{}
			switch {
			case s.Closed():
				c.StreamsClosed++
			case s.PeerClosed():
				c.StreamsPeerClosed++
			default:
				c.StreamsOpen++
			}
			c.QueueBytes += s.in.ringBytes()
		}
	}
	for _, r := range recs {
		c.RecorderBytes += r.ringBytes()
	}
	return c
}

// RegisterGauges publishes the census in the default metrics registry as
// host.census.* gauges, sampled at snapshot time, and returns the function
// that removes them. One kernel per process registers; a second kernel's
// call replaces the first's gauges.
func (k *Kernel) RegisterGauges() func() {
	gauges := []struct {
		name string
		get  func(Census) int
	}{
		{"host.census.procs", func(c Census) int { return c.Procs }},
		{"host.census.streams_open", func(c Census) int { return c.StreamsOpen }},
		{"host.census.streams_peer_closed", func(c Census) int { return c.StreamsPeerClosed }},
		{"host.census.streams_closed", func(c Census) int { return c.StreamsClosed }},
		{"host.census.listeners", func(c Census) int { return c.Listeners }},
		{"host.census.stores", func(c Census) int { return c.Stores }},
		{"host.census.rings", func(c Census) int { return c.Rings }},
		{"host.census.retired_recorders", func(c Census) int { return c.RetiredRecorders }},
		{"host.census.recorder_bytes", func(c Census) int { return c.RecorderBytes }},
		{"host.census.queue_bytes", func(c Census) int { return c.QueueBytes }},
	}
	for _, g := range gauges {
		get := g.get
		metrics.Default.RegisterGauge(g.name, func() int64 { return int64(get(k.Census())) })
	}
	return func() {
		for _, g := range gauges {
			metrics.Default.UnregisterGauge(g.name)
		}
	}
}
