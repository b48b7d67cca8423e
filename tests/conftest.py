import datetime as dt
import errno
import http.server
import os
import threading

import pytest

import cryptodynamics as cd
from cryptodynamics.simulate import PhaseSpec

# A compact two-phase synthetic market small enough for exhaustive checks.
# The entry moments (0.438, 0.308) are exactly representable for six assets.
SMALL_START = dt.date(2019, 6, 1)
SMALL_END = dt.date(2019, 12, 31)
SMALL_PERIODS = cd.PeriodPartition((
    cd.Period("calm", dt.date(2019, 6, 1), dt.date(2019, 9, 30)),
    cd.Period("storm", dt.date(2019, 10, 1), dt.date(2019, 12, 31)),
))
SMALL_PHASES = {
    "calm": PhaseSpec(0.438, 0.308, +0.0010, 0.0040, 0.0300),
    "storm": PhaseSpec(0.438, 0.308, -0.0040, 0.0160, 0.1200),
}


def small_market(seed=7, n_assets=6):
    return cd.simulated_market(seed=seed, n_assets=n_assets,
                               start=SMALL_START, end=SMALL_END,
                               periods=SMALL_PERIODS, phases=SMALL_PHASES)


@pytest.fixture(scope="session")
def small_panel():
    return small_market()


@pytest.fixture(scope="session")
def small_returns(small_panel):
    return cd.log_returns(small_panel)


@pytest.fixture(scope="session")
def small_vol(small_returns):
    return cd.rolling_volatility(small_returns, 30)


@pytest.fixture(scope="session")
def sim_panel():
    """The full default synthetic market (52 assets, 2019-01-01..2021-06-30)."""
    return cd.simulated_market()


@pytest.fixture(scope="session")
def sim_returns(sim_panel):
    return cd.log_returns(sim_panel)


@pytest.fixture(scope="session")
def sim_dataset_dir(tmp_path_factory, sim_panel):
    """price.csv + marketcap.csv for the default synthetic market."""
    d = tmp_path_factory.mktemp("dataset")
    cd.write_panel(sim_panel, d / "price.csv", d / "marketcap.csv")
    return d


@pytest.fixture(scope="session")
def small_dataset_dir(tmp_path_factory, small_panel):
    """price.csv + marketcap.csv for the six-asset two-phase market."""
    d = tmp_path_factory.mktemp("small_dataset")
    cd.write_panel(small_panel, d / "price.csv", d / "marketcap.csv")
    return d


@pytest.fixture()
def local_http():
    """A loopback HTTP server backed by a mutable {path: (status, body)} map.

    A str body is served UTF-8 encoded, a bytes body as it is. A route may
    add a third item, a {name: value} dict of further headers.
    """
    routes = {}

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            path = self.path.split("?", 1)[0]
            status, body, *headers = routes.get(path, (404, "no such route"))
            payload = body if isinstance(body, bytes) else body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "text/csv")
            self.send_header("Content-Length", str(len(payload)))
            for name, value in dict(*headers).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *_args):
            pass  # keep test output quiet

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    # a short poll keeps shutdown() from waiting out the default 0.5 s
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", routes
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


@pytest.fixture()
def second_panel_file_fails(monkeypatch):
    """Make the panel writer's second file fail on its second write, as on a full disk.

    Returns the list of the files opened for writing.
    """
    from cryptodynamics import panel

    class DiskFull:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, text):
            self.writes += 1
            if self.writes > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return self.fh.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.fh.close()

    opened = []

    def second_file_fails(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if "w" not in mode:  # the loader's reader shares the module
            return fh
        opened.append(fh)
        return DiskFull(fh) if len(opened) == 2 else fh

    monkeypatch.setattr(panel, "open", second_file_fails, raising=False)
    return opened
