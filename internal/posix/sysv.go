package posix

import "graphene/internal/api"

// SemMaxNsems is the largest semaphore set semget(2) creates (SEMMSL).
const SemMaxNsems = 250

// CheckNsems is semget(2)'s bound on nsems: EINVAL outside 1..SemMaxNsems.
func CheckNsems(nsems int) error {
	if nsems <= 0 || nsems > SemMaxNsems {
		return api.EINVAL
	}
	return nil
}

// MsgMatches is msgrcv(2)'s type selection of a message of type mtype:
// msgtyp 0 takes any message, a positive msgtyp only that type, and a
// negative one any type at most |msgtyp|.
func MsgMatches(mtype, msgtyp int64) bool {
	switch {
	case msgtyp == 0:
		return true
	case msgtyp > 0:
		return mtype == msgtyp
	}
	return mtype <= -msgtyp
}

// SemApply performs ops on vals all or nothing (semop(2)). applied is false,
// with vals untouched, when an operation would block; EINVAL names a
// semaphore outside the set.
func SemApply(vals []int, ops []api.SemBuf) (applied bool, errno api.Errno) {
	for _, op := range ops {
		switch {
		case op.Num < 0 || op.Num >= len(vals):
			return false, api.EINVAL
		case op.Op < 0 && vals[op.Num] < int(-op.Op), op.Op == 0 && vals[op.Num] != 0:
			return false, 0
		}
	}
	for _, op := range ops {
		vals[op.Num] += int(op.Op)
	}
	return true, 0
}
