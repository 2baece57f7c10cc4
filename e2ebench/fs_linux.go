package main

import (
	"fmt"
	"syscall"
)

// Filesystem magic numbers from statfs(2).
const (
	tmpfsMagic = 0x01021994
	ramfsMagic = 0x858458f6
)

var fsNames = map[int64]string{
	0xef53:     "ext2/3/4",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x794c7630: "overlayfs",
	tmpfsMagic: "tmpfs",
	ramfsMagic: "ramfs",
}

// fsType names the filesystem holding dir and reports whether it lives in
// memory, where fsync costs nothing.
func fsType(dir string) (name string, mem bool, err error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", false, fmt.Errorf("statfs %s: %w", dir, err)
	}
	magic := int64(st.Type)
	name, ok := fsNames[magic]
	if !ok {
		name = fmt.Sprintf("0x%x", magic)
	}
	return name, magic == tmpfsMagic || magic == ramfsMagic, nil
}
