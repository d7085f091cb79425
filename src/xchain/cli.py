"""Command-line runner: execute scenario files, sweep fault matrices,
diff traces and list the shipped scenario corpus."""

import os
import sys
from pathlib import Path

import click

from .scenario import Scenario, ScenarioError, run_sweep
from .simnet import TRACE_FIELDS

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_PARSE = 2


def _seed_option(seed):
    """--seed, else XCHAIN_SIM_SEED; a ScenarioError if that is no integer."""
    if seed is not None:
        return seed
    env = os.environ.get("XCHAIN_SIM_SEED")
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise ScenarioError(f"XCHAIN_SIM_SEED must be an integer, got {env!r}") from None


@click.group()
def main():
    """Atomic crosschain transaction simulator."""


@main.command()
@click.argument("scenario_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=None,
              help="Override the scenario seed (XCHAIN_SIM_SEED as fallback).")
@click.option("--trace-out", type=click.Path(dir_okay=False), default=None,
              help="Write the run trace to this file.")
@click.option("--max-ticks", type=int, default=None)
@click.option("--locked-view-policy",
              type=click.Choice(["fail", "assume-ignored", "assume-committed"]),
              default=None, help="Crosschain view behaviour on locked contracts.")
@click.option("--verbose", is_flag=True, help="Print the trace to stdout.")
def run(scenario_path, seed, trace_out, max_ticks, locked_view_policy, verbose):
    """Run one scenario; exit 0 iff every embedded assertion passes."""
    try:
        scenario = Scenario.load(scenario_path)
        result = scenario.run(seed=_seed_option(seed),
                              locked_view_policy=locked_view_policy,
                              max_ticks=max_ticks)
    except ScenarioError as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    if trace_out:
        Path(trace_out).write_text(result.world.net.trace_lines())
    if verbose:
        click.echo(result.world.net.trace_lines(), nl=False)
    click.echo(f"scenario {result.name}: "
               f"{len(result.world.net.trace)} trace records, "
               f"{result.elapsed:.2f}s")
    for assertion in result.assertions:
        click.echo(assertion.line())
    if not result.assertions:
        click.echo("note: scenario has no assertions")
    sys.exit(EXIT_OK if result.ok else EXIT_ASSERTION)


@main.command()
@click.argument("scenario_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--fault-kind", "fault_kinds", multiple=True,
              type=click.Choice(["crash_node", "drop_message", "remove_validator"]),
              help="Fault kinds to sweep (default: all three).")
@click.option("--seed", type=int, default=None)
def sweep(scenario_path, fault_kinds, seed):
    """Run the scenario once per (protocol step, fault) cell and check
    each cell's terminal outcome and atomicity."""
    try:
        scenario = Scenario.load(scenario_path)
        report = run_sweep(scenario, list(fault_kinds) or None,
                           seed=_seed_option(seed))
    except ScenarioError as exc:
        click.echo(f"parse error: {exc}", err=True)
        sys.exit(EXIT_PARSE)
    for line in report.lines():
        click.echo(line)
    passed = sum(1 for entry in report.cells if entry[3])
    click.echo(f"{passed}/{len(report.cells)} cells passed")
    sys.exit(EXIT_OK if report.ok else EXIT_ASSERTION)


@main.command("trace-diff")
@click.argument("trace_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("trace_b", type=click.Path(exists=True, dir_okay=False))
@click.option("--ignore-digests", is_flag=True,
              help="Compare structure only, not payload digests.")
def trace_diff(trace_a, trace_b, ignore_digests):
    """Structural diff of two trace files; exit 0 iff identical."""
    def load(path):
        lines = []
        for line in Path(path).read_text().splitlines():
            if not line.strip():
                continue
            fields = dict(part.split("=", 1) for part in line.split(" ") if "=" in part)
            if line.count(" ") + 1 != len(fields) or set(fields) != set(TRACE_FIELDS):
                click.echo(f"schema mismatch in {path}: {line}", err=True)
                sys.exit(EXIT_PARSE)
            if ignore_digests:
                fields.pop("digest")
            lines.append(tuple(sorted(fields.items())))
        return lines

    a, b = load(trace_a), load(trace_b)
    differences = 0
    for i, (ra, rb) in enumerate(zip(a, b)):
        if ra != rb:
            differences += 1
            if differences <= 20:
                click.echo(f"line {i + 1}: {dict(ra)} != {dict(rb)}")
    if len(a) != len(b):
        differences += abs(len(a) - len(b))
        click.echo(f"length mismatch: {len(a)} vs {len(b)} records")
    if differences:
        click.echo(f"{differences} differing records")
        sys.exit(EXIT_ASSERTION)
    click.echo("traces identical")
    sys.exit(EXIT_OK)


@main.command("list-scenarios")
@click.option("--dir", "directory", type=click.Path(exists=True, file_okay=False),
              default="scenarios")
def list_scenarios(directory):
    """List scenario files with their descriptions."""
    for path in sorted(Path(directory).glob("*.scn")):
        try:
            scenario = Scenario.load(str(path))
            click.echo(f"{path.name}: {scenario.description or scenario.name}")
        except ScenarioError as exc:
            click.echo(f"{path.name}: UNPARSEABLE ({exc})")


if __name__ == "__main__":
    main()
