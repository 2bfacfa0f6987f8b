package host

import (
	"sync"

	"graphene/internal/api"
)

// Kernel images. Every picoprocess of a personality starts with the same
// fixed image at the same place — libLinux's 1.4 MB libOS image, native's
// program + libc text — whose content is not modelled: it reads as zeros
// until written. The kernel builds each image once, on first use, and a
// picoprocess maps it by reference: one reference per 2 MiB leaf on the
// kernel's own block of slots, not one page slot per page. The kernel's
// reference keeps the block shared while anyone maps it, so the first write
// into an image page copies the leaf (ptLeaf.own) and the page
// (copyForWrite) as any copy-on-write break does, and no write ever reaches
// the kernel's copy. An image is the one object shared across a sandbox
// split; like the host page cache, it carries nothing any picoprocess
// wrote. ResidentBytes charges each mapping of it in full.

// imageKey identifies a kernel image by its base address and length.
type imageKey struct{ base, length uint64 }

// kernelImage is one built image: the kernel's own reference on each of
// its leaves, in ascending address order, and the pages they hold.
type kernelImage struct {
	imageKey
	leaves []batchLeaf
	pages  int
}

// imageTable holds a kernel's images, a handful at most (one per
// personality), so a list is searched.
type imageTable struct {
	mu     sync.Mutex
	images []*kernelImage
}

// image returns the image of [base, base+length), building it on first use.
func (t *imageTable) image(base, length uint64) (*kernelImage, error) {
	key := imageKey{base, length}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, img := range t.images {
		if img.imageKey == key {
			return img, nil
		}
	}
	img, err := buildImage(base, length)
	if err != nil {
		return nil, err
	}
	img.imageKey = key
	t.images = append(t.images, img)
	return img, nil
}

// buildImage makes every page of [base, base+length) resident as zero-fill
// in a scratch address space and keeps one reference on each leaf's block
// as the kernel's own; the scratch space is then released.
func buildImage(base, length uint64) (*kernelImage, error) {
	as := NewAddressSpace()
	defer as.Release()
	if _, err := as.Alloc(base, length, api.ProtRead|api.ProtWrite); err != nil {
		return nil, err
	}
	if err := as.TouchRange(base, length); err != nil {
		return nil, err
	}
	leaves, n := as.shareLeaves(base>>PageShift, pageAlignUp(base+length)>>PageShift)
	for i := range leaves {
		leaves[i].image = true
		for _, pg := range leaves[i].s.pages {
			if pg != nil {
				pg.image = true
			}
		}
	}
	return &kernelImage{leaves: leaves, pages: n}, nil
}

// MapImage maps the kernel's image of [base, base+length) into as, which
// must already map that range (the caller's VM allocation): one reference
// per leaf, each adopted as it is into an empty leaf (AddressSpace.mapLeaves).
// It fails with EFAULT if part of the image found no mapping; what did is
// left mapped, as a partial write is left written.
func (k *Kernel) MapImage(as *AddressSpace, base, length uint64) error {
	img, err := k.images.image(base, length)
	if err != nil {
		return err
	}
	for _, l := range img.leaves {
		l.s.refs.Add(1)
	}
	if as.mapLeaves(img.leaves, 0) != img.pages {
		return api.EFAULT
	}
	return nil
}
