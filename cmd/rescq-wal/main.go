// Command rescq-wal inspects a rescqd store directory (see internal/store).
//
// Usage:
//
//	rescq-wal dump <store-dir>    # snapshot, then log, as JSON lines
//
// dump prints every record in the JSON-lines format older daemons wrote,
// one per line in file order. The output is itself a valid JSON-era log:
// written into an empty directory as wal.jsonl, it replays to the same
// jobs, and the first rescqd Open there migrates it back to binary.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 || args[0] != "dump" {
		fmt.Fprintln(stderr, "usage: rescq-wal dump <store-dir>")
		return 2
	}
	if err := store.Dump(args[1], stdout); err != nil {
		fmt.Fprintln(stderr, "rescq-wal:", err)
		return 1
	}
	return 0
}
