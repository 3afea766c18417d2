package main

import (
	"testing"
	"time"
)

func TestRecvRejectsNoRails(t *testing.T) {
	if err := runRecv("127.0.0.1:0", t.TempDir()+"/out", -1, "split", time.Second); err == nil {
		t.Fatal("-rails -1 accepted")
	}
}
