// Package cf seeds context-flow violations: parameters that take a
// context and drop it, and fresh contexts minted inside functions
// that already received one.
package cf

import "context"

// Unused accepts a context and never consults it: flagged.
func Unused(ctx context.Context, x int) int {
	return x + 1
}

// Discarded throws the caller's context away at the signature: flagged.
func Discarded(_ context.Context) {}

// Propagates hands its context on: not flagged.
func Propagates(ctx context.Context) error {
	return work(ctx)
}

// Checks consults ctx.Err: not flagged.
func Checks(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return nil
}

// Fresh uses its context but then severs the chain with a new root
// context: the context.Background call is flagged.
func Fresh(ctx context.Context) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return work(context.Background())
}

// Spawn closes over its context in a literal: not flagged.
func Spawn(ctx context.Context) func() error {
	return func() error { return work(ctx) }
}

func work(ctx context.Context) error { return ctx.Err() }

// FreshInLiteral mints a fresh context inside a function literal that
// receives one: the unused parameter and the Background call are both
// flagged.
func FreshInLiteral(task func(context.Context) error) func(context.Context) error {
	return func(ctx context.Context) error {
		return task(context.Background())
	}
}
