from .client import (ClientConfig, CrawlState, HarvestClient, TokenBucket,
                     crawl_users, fetch_public_feed, fetch_user_transactions,
                     load_checkpoint, resolve_user_id, save_checkpoint)
from .server import MockServer, MockServerConfig, run_mock_server

__all__ = [
    "ClientConfig", "CrawlState", "HarvestClient", "TokenBucket",
    "crawl_users", "fetch_public_feed", "fetch_user_transactions",
    "load_checkpoint", "resolve_user_id", "save_checkpoint",
    "MockServer", "MockServerConfig", "run_mock_server",
]
