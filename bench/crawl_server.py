"""The crawl workload's mock server, in its own process.

Usage: python3 crawl_server.py CORPUS.jsonl PAGE_SIZE

Loads the corpus, starts `paylens.harvest.MockServer` with rate limiting off
and prints {"url": ...} on one line. Then, for each line read on stdin, it
prints the server's audit counters as one JSON line; the line "stop" (or end
of input) stops the server after answering. The server runs as shipped: no
socket option is changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from paylens.corpus import group_by_user, load_transactions  # noqa: E402
from paylens.harvest import MockServerConfig, run_mock_server  # noqa: E402


def main(corpus_path: str, page_size: str) -> int:
    with open(corpus_path, encoding="utf-8") as fp:
        corpus = group_by_user(load_transactions(fp, strict=True).transactions)
    config = MockServerConfig(page_size=int(page_size), rate_limit=0.0)
    with run_mock_server(corpus, config) as server:
        print(json.dumps({"url": server.url}), flush=True)
        for line in sys.stdin:
            print(json.dumps({"requests": server.request_count,
                              "rate_limited": server.rate_limited_count}),
                  flush=True)
            if line.strip() == "stop":
                break
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
