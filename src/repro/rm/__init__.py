"""Resource-manager substrate: worker placement, whitelists, node failures."""
