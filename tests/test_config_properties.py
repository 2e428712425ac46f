"""Property tests for the config key table and the run-input rules."""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdvlab.cli import cmd_run
from kdvlab.config import (
    GAMMA_MODES,
    REFINE_MODES,
    SCHEMES,
    ConvergeConfig,
    RunConfig,
    parse_config,
    parse_converge_config,
)
from kdvlab.errors import ConfigError
from kdvlab.evolution import snapshot_requests
from kdvlab.model import TimeGrid

positive = st.floats(min_value=1e-300, max_value=1e300, allow_nan=False)
# '#' and line breaks are reserved by the file format, and values are
# stripped, so echoed text must not carry either.
text = st.text(
    alphabet=st.characters(codec="ascii", min_codepoint=32, exclude_characters="#"),
    min_size=1,
).map(str.strip).filter(bool)


@st.composite
def run_configs(draw):
    x_min = draw(st.floats(min_value=-1e6, max_value=1e6))
    x_max = draw(st.floats(min_value=x_min, max_value=2e6, exclude_min=True))
    # t_end is a whole number of steps, so it is the last time level, and
    # every snapshot lies at or below it, each on its own level
    dt = draw(st.floats(min_value=1e-300, max_value=1e297))
    t_end = dt * draw(st.integers(min_value=1, max_value=1000))
    kind = draw(st.sampled_from(["appendix", "paper-eq2", "traveling", "file"]))
    param = {"appendix": st.none(), "file": text}.get(kind, positive)
    times = ()
    for t in sorted(draw(st.lists(st.floats(min_value=0.0, max_value=t_end), max_size=5))):
        try:
            snapshot_requests(times + (t,), TimeGrid(t_end, dt))
        except ValueError:  # t selects the level of the request before it
            continue
        times += (t,)
    output_dir = draw(text.map(Path).filter(lambda p: str(p) == str(p).strip()))
    scheme = draw(st.sampled_from(SCHEMES))
    return RunConfig(
        scheme=scheme,
        gamma_mode=draw(st.sampled_from(GAMMA_MODES)),
        x_min=x_min,
        x_max=x_max,
        nx=draw(st.integers(min_value=7, max_value=10**9)),
        dt=dt,
        t_end=t_end,
        ic=(kind, draw(param)),
        snapshot_times=times,
        # the explicit scheme never normalizes, so it takes only off
        paper_normalization=scheme != "explicit" and draw(st.booleans()),
        output_dir=output_dir,
    )


@given(run_configs())
def test_run_echo_round_trips(cfg):
    cfg.validate()
    lines = cfg.echo_lines()
    assert parse_config("\n".join(lines)) == cfg
    # the same settings given as command-line override pairs
    assert parse_config("", [line.split(" = ", 1) for line in lines]) == cfg


@st.composite
def converge_configs(draw):
    run = draw(run_configs())
    return ConvergeConfig(
        **{name: getattr(run, name) for name in RunConfig.defaults if name != "snapshot_times"},
        levels=draw(st.integers(min_value=1, max_value=10**9)),
        # a file holds one grid, so only time refinement reads it at every level
        refine=draw(st.sampled_from(("time",) if run.ic[0] == "file" else REFINE_MODES)),
    )


@given(converge_configs())
def test_converge_echo_round_trips(cfg):
    cfg.validate()
    lines = cfg.echo_lines()
    assert parse_converge_config("\n".join(lines)) == cfg
    assert parse_converge_config("", [line.split(" = ", 1) for line in lines]) == cfg


@st.composite
def stepping_inputs(draw):
    """(t_end, dt, snapshot_times) of a run of at most 200 steps."""
    dt = draw(st.floats(min_value=1e-3, max_value=1.0))
    t_end = draw(st.floats(min_value=0.0, max_value=200 * dt, exclude_min=True))
    request = st.one_of(
        st.floats(min_value=0.0, max_value=1.1 * t_end),
        st.just(t_end),
        st.integers(min_value=0, max_value=200).map(lambda k: k * dt),  # on a level
    )
    return t_end, dt, tuple(sorted(draw(st.lists(request, max_size=5))))


@settings(max_examples=100, deadline=None)
@given(stepping_inputs())
@example((1.0, 0.3, (0.0, 1.0)))  # dt 0.3 stops at 0.9, short of the request at 1
def test_a_run_that_parses_records_every_request_unless_it_blows_up(inputs):
    t_end, dt, times = inputs
    overrides = [("scheme", "explicit"), ("nx", "9"), ("t_end", repr(t_end)),
                 ("dt", repr(dt)), ("snapshot_times", ",".join(map(repr, times)))]
    try:
        cfg = parse_config("", overrides)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        cfg.output_dir = Path(tmp)
        cmd_run(cfg)
        meta = (cfg.output_dir / "run.meta").read_text().splitlines()
    assert "outcome = blow-up" in meta or f"snapshot_count = {len(times)}" in meta
