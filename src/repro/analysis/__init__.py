"""Analysis tools: fork model, convergence checks, overheads, tree view, Table I."""
