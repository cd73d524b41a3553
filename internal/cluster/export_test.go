package cluster

import (
	"context"
	"net/http"
)

// Mutate POSTs body to path through do as a non-idempotent request and
// returns its decoded outcome, so the retry tests can drive do's rules
// for mutations.
func (c *Client) Mutate(ctx context.Context, path string, body []byte) error {
	reply, err := c.do(ctx, http.MethodPost, path, "application/json", body, false)
	if err != nil {
		return err
	}
	return decode(reply, nil)
}
