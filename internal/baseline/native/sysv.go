package native

import (
	"sync"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/posix"
)

// sysvTables holds the kernel-resident System V IPC state: queues and
// semaphore sets live in kernel memory and survive their creators —
// which is why the paper has no native "persistent" column in Table 7.
type sysvTables struct {
	mu     sync.Mutex
	nextID int
	keys   [2]map[int]int // key -> ID, per kind
	objs   map[int]*kObj
}

// The two kinds of System V object.
const (
	msgQueue = iota
	semSet
)

func newSysvTables() *sysvTables {
	return &sysvTables{keys: [2]map[int]int{{}, {}}, objs: make(map[int]*kObj)}
}

// kObj is one queue or semaphore set: its contents, the lock and condition
// variable blocked callers sleep on, and the flag rmid sets.
type kObj struct {
	kind    int
	msgs    []kMsg // a queue's messages
	vals    []int  // a set's semaphores
	mu      sync.Mutex
	cv      sync.Cond
	removed bool
}

type kMsg struct {
	mtype int64
	data  []byte
}

// get resolves key to an ID under msgget(2)/semget(2)'s flag rules,
// creating o under a fresh ID when they allow it.
func (t *sysvTables) get(key, flags int, o *kObj) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := t.keys[o.kind]
	if key != api.IPCPrivate {
		if id, ok := keys[key]; ok {
			if flags&api.IPCCreat != 0 && flags&api.IPCExcl != 0 {
				return 0, api.EEXIST
			}
			return id, nil
		}
		if flags&api.IPCCreat == 0 {
			return 0, api.ENOENT
		}
	}
	t.nextID++
	o.cv.L = &o.mu
	t.objs[t.nextID] = o
	if key != api.IPCPrivate {
		keys[key] = t.nextID
	}
	return t.nextID, nil
}

// lookup returns object id of kind, nil when there is none.
func (t *sysvTables) lookup(id, kind int) *kObj {
	t.mu.Lock()
	defer t.mu.Unlock()
	if o := t.objs[id]; o != nil && o.kind == kind {
		return o
	}
	return nil
}

// rmid destroys object id of kind and wakes its sleepers into EIDRM.
func (t *sysvTables) rmid(id, kind int) error {
	t.mu.Lock()
	o := t.objs[id]
	if o == nil || o.kind != kind {
		t.mu.Unlock()
		return api.EIDRM
	}
	delete(t.objs, id)
	for k, v := range t.keys[kind] {
		if v == id {
			delete(t.keys[kind], k)
		}
	}
	t.mu.Unlock()
	o.mu.Lock()
	o.removed = true
	o.cv.Broadcast()
	o.mu.Unlock()
	return nil
}

// wakeAll wakes every sleeper in the tables, so that one an interrupting
// signal was delivered to returns EINTR; the rest go back to sleep.
func (t *sysvTables) wakeAll() {
	t.mu.Lock()
	objs := make([]*kObj, 0, len(t.objs))
	for _, o := range t.objs {
		objs = append(objs, o)
	}
	t.mu.Unlock()
	for _, o := range objs {
		o.mu.Lock()
		o.cv.Broadcast()
		o.mu.Unlock()
	}
}

// block runs try with the object of kind id locked until it is done,
// sleeping between tries: EIDRM when the object is or goes away, noWait
// when the caller may not sleep, and EINTR when a caught or fatal signal
// arrives (msgrcv(2), semop(2)). The interrupt channel is taken before the
// first try; a delivery closes it before wakeAll wakes the sleepers.
func (p *Process) block(id, kind int, noWait api.Errno, try func(o *kObj) (done bool, errno api.Errno)) error {
	o := p.kernel.sysv.lookup(id, kind)
	if o == nil {
		return api.EIDRM
	}
	intr := p.sig.Interrupt()
	o.mu.Lock()
	defer o.mu.Unlock()
	for {
		if o.removed {
			return api.EIDRM
		}
		if done, errno := try(o); errno != 0 {
			return errno
		} else if done {
			o.cv.Broadcast()
			return nil
		}
		if noWait != 0 {
			return noWait
		}
		select {
		case <-intr:
			return api.EINTR
		default:
		}
		o.cv.Wait()
	}
}

// Msgget maps a key to a queue ID in the kernel tables.
func (p *Process) Msgget(key int, flags int) (int, error) {
	if err := p.enter(host.SysMsgget); err != nil {
		return 0, err
	}
	return p.kernel.sysv.get(key, flags, &kObj{kind: msgQueue})
}

// Msgsnd appends to a kernel queue.
func (p *Process) Msgsnd(id int, mtype int64, data []byte, flags int) error {
	if err := p.enter(host.SysMsgsnd); err != nil {
		return err
	}
	if mtype <= 0 {
		return api.EINVAL
	}
	return p.block(id, msgQueue, 0, func(q *kObj) (bool, api.Errno) {
		q.msgs = append(q.msgs, kMsg{mtype: mtype, data: append([]byte(nil), data...)})
		return true, 0
	})
}

// Msgrcv pops the first matching message, blocking unless IPCNoWait.
func (p *Process) Msgrcv(id int, mtype int64, buf []byte, flags int) (int64, []byte, error) {
	if err := p.enter(host.SysMsgrcv); err != nil {
		return 0, nil, err
	}
	noWait := api.Errno(0)
	if flags&api.IPCNoWait != 0 {
		noWait = api.ENOMSG
	}
	var got kMsg
	err := p.block(id, msgQueue, noWait, func(q *kObj) (bool, api.Errno) {
		for i, m := range q.msgs {
			if posix.MsgMatches(m.mtype, mtype) {
				q.msgs = append(q.msgs[:i], q.msgs[i+1:]...)
				if buf != nil && len(m.data) > len(buf) {
					return false, api.E2BIG
				}
				got = m
				return true, 0
			}
		}
		return false, 0
	})
	if err != nil {
		return 0, nil, err
	}
	return got.mtype, got.data, nil
}

// MsgctlRmid destroys a queue.
func (p *Process) MsgctlRmid(id int) error {
	if err := p.enter(host.SysMsgctl); err != nil {
		return err
	}
	return p.kernel.sysv.rmid(id, msgQueue)
}

// Semget maps a key to a semaphore set.
func (p *Process) Semget(key int, nsems int, flags int) (int, error) {
	if err := p.enter(host.SysSemget); err != nil {
		return 0, err
	}
	if err := posix.CheckNsems(nsems); err != nil {
		return 0, err
	}
	return p.kernel.sysv.get(key, flags, &kObj{kind: semSet, vals: make([]int, nsems)})
}

// Semop applies sembuf operations atomically, blocking as needed.
func (p *Process) Semop(id int, ops []api.SemBuf) error {
	if err := p.enter(host.SysSemop); err != nil {
		return err
	}
	noWait := api.Errno(0)
	for _, op := range ops {
		if int(op.Flg)&api.IPCNoWait != 0 {
			noWait = api.EAGAIN
		}
	}
	return p.block(id, semSet, noWait, func(s *kObj) (bool, api.Errno) {
		return posix.SemApply(s.vals, ops)
	})
}

// SemctlRmid destroys a semaphore set.
func (p *Process) SemctlRmid(id int) error {
	if err := p.enter(host.SysSemctl); err != nil {
		return err
	}
	return p.kernel.sysv.rmid(id, semSet)
}
