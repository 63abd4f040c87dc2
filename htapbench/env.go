package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/client"
)

// segments is the cluster size every workload runs on.
const segments = 2

// env is one fresh engine behind a loopback wire server, plus an admin
// connection used for set-up and the end-of-run checks (idle while the
// measured window runs).
type env struct {
	engine *core.Engine
	srv    *server.Server
	admin  *client.Client
	conns  []*client.Client
}

// rawConfig is the GPDB6 two-segment cluster in raw cost mode: no simulated
// network, fsync or per-statement segment CPU delays, so the benchmark
// measures the code rather than time.Sleep.
func rawConfig() *cluster.Config {
	cfg := cluster.GPDB6(segments)
	cfg.NetDelay = 0
	cfg.FsyncDelay = 0
	cfg.SegmentStmtCPU = 0
	return cfg
}

// boot starts an engine and its server and dials the admin connection.
func boot() (*env, error) {
	e := &env{engine: core.NewEngine(rawConfig())}
	e.srv = server.New(e.engine, server.Config{})
	if err := e.srv.Start(); err != nil {
		e.engine.Close()
		return nil, fmt.Errorf("start server: %w", err)
	}
	c, err := client.Dial(e.srv.Addr(), "")
	if err != nil {
		e.close()
		return nil, fmt.Errorf("dial admin: %w", err)
	}
	e.admin = c
	return e, nil
}

// dial opens n load-generating connections.
func (e *env) dial(n int) ([]*client.Client, error) {
	out := make([]*client.Client, n)
	for i := range out {
		c, err := client.Dial(e.srv.Addr(), "")
		if err != nil {
			return nil, fmt.Errorf("dial load connection %d: %w", i, err)
		}
		out[i] = c
		e.conns = append(e.conns, c)
	}
	return out, nil
}

// close drops every connection, drains the server and stops the engine's
// background daemons.
func (e *env) close() {
	for _, c := range e.conns {
		_ = c.Close()
	}
	if e.admin != nil {
		_ = e.admin.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx)
	e.engine.Close()
}

// exec runs one admin statement.
func (e *env) exec(ctx context.Context, sqlText string) (*client.Result, error) {
	res, err := e.admin.Exec(ctx, sqlText)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", firstLine(sqlText), err)
	}
	return res, nil
}

// script runs semicolon-separated admin statements.
func (e *env) script(ctx context.Context, s string) error {
	for _, st := range splitStatements(s) {
		if _, err := e.exec(ctx, st); err != nil {
			return err
		}
	}
	return nil
}

// scalar runs a one-value admin query and returns it as float64 (NULL = 0).
func (e *env) scalar(ctx context.Context, sqlText string) (float64, error) {
	res, err := e.exec(ctx, sqlText)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, fmt.Errorf("%s: want one value, got %d rows", firstLine(sqlText), len(res.Rows))
	}
	return res.Rows[0][0].Float(), nil
}

// settle collects garbage left by a previous engine so every set-up and
// window starts from the same heap state.
func settle() { runtime.GC() }
