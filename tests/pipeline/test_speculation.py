"""Optimizer.speculate / confirm_speculation: side-effect freedom, exact
replay, and the refit-schedule interplay the pipelined loop relies on."""

import pytest

from repro.configspace import ConfigurationSpace, OrdinalHyperparameter
from repro.ytopt.optimizer import Optimizer, RefitSchedule, refit_policy


def _space(seed):
    space = ConfigurationSpace(seed=seed)
    for i in range(4):
        space.add_hyperparameter(
            OrdinalHyperparameter(f"P{i}", tuple(range(2, 34, 2)))
        )
    return space


def _cost(config):
    d = config.get_dictionary()
    return 1.0 + sum((v - 16) ** 2 * (i + 1) for i, (_, v) in
                     enumerate(sorted(d.items())))


def _make(seed=0, schedule=RefitSchedule(dense_until=6), n_initial=6):
    return Optimizer(
        _space(seed),
        n_initial_points=n_initial,
        refit_interval=1,
        refit_schedule=schedule,
        seed=seed,
    )


def _drive(opt, n):
    """n plain ask/tell steps; returns the asked configuration dicts."""
    asked = []
    for _ in range(n):
        config = opt.ask()
        opt.tell(config, _cost(config))
        asked.append(config.get_dictionary())
    return asked


class TestSpeculateSnapshot:
    def test_speculation_does_not_perturb_the_trajectory(self):
        """A speculating twin asks the exact same sequence as a pure one."""
        pure, spec = _make(), _make()
        pure_asked, spec_asked = [], []
        for _ in range(20):
            a, b = pure.ask(), spec.ask()
            # Speculate in the engine's slot — after the ask, before the
            # tell — then throw the preview away (never confirm).
            spec.speculate(1, will_tell=1, exclude=(b,))
            spec._spec_token = None
            pure.tell(a, _cost(a))
            spec.tell(b, _cost(b))
            pure_asked.append(a.get_dictionary())
            spec_asked.append(b.get_dictionary())
        assert pure_asked == spec_asked

    def test_speculate_abstains_when_refit_always_due(self):
        """refit_every=1 (no schedule): every wave refits, so there is never
        a safe speculation — the byte-identity escape hatch."""
        opt = Optimizer(_space(0), n_initial_points=4, refit_interval=1, seed=0)
        _drive(opt, 6)  # well into the model phase
        config = opt.ask()
        assert opt.speculate(1, will_tell=1, exclude=(config,)) is None

    def test_speculate_abstains_on_phase_boundary(self):
        opt = _make(n_initial=6)
        _drive(opt, 5)
        config = opt.ask()  # the 6th: its tell crosses into the model phase
        assert opt.speculate(1, will_tell=1, exclude=(config,)) is None

    def test_speculate_rejects_bad_width(self):
        from repro.common.errors import TuningError

        with pytest.raises(TuningError, match="width"):
            _make().speculate(0)


class TestConfirmExactness:
    @pytest.mark.parametrize("width", [1, 3])
    def test_pipelined_loop_matches_serial_twin(self, width):
        """The engine's speculate -> tell -> confirm-else-ask loop proposes
        exactly what a plain ask/tell twin proposes. At width 1 the confirm
        fast path actually fires; at batch widths every wave's constant-liar
        retraction forces a clean refit, so speculation must always abstain
        (a refit-free window never exists) — and the loop still matches.
        """
        # growth=2 leaves wide refit-free windows between scheduled fits.
        sched = RefitSchedule(dense_until=4, growth=2.0)
        pipelined, serial = _make(schedule=sched), _make(schedule=sched)
        confirms = 0
        waves = 36 // width
        pip_wave, ser_wave, confirmed = None, None, False
        for _ in range(waves):
            if pip_wave is None or not confirmed:
                pip_wave = (
                    [pipelined.ask()] if width == 1
                    else pipelined.ask_batch(width)
                )
            ser_wave = [serial.ask()] if width == 1 else serial.ask_batch(width)
            assert [c.get_dictionary() for c in pip_wave] == [
                c.get_dictionary() for c in ser_wave
            ]
            spec = pipelined.speculate(
                width, will_tell=len(pip_wave), exclude=tuple(pip_wave)
            )
            for c in pip_wave:
                pipelined.tell(c, _cost(c))
            for c in ser_wave:
                serial.tell(c, _cost(c))
            confirmed = False
            if spec is not None:
                picks = pipelined.confirm_speculation(width)
                if picks is not None:
                    pip_wave, confirmed, confirms = picks, True, confirms + 1
        if width == 1:
            assert confirms >= 1
        else:
            assert confirms == 0

    def test_confirm_without_speculation_returns_none(self):
        opt = _make()
        _drive(opt, 8)
        assert opt.confirm_speculation() is None

    def test_confirm_is_single_shot(self):
        """A confirmed token is consumed; a second confirm must re-ask."""
        opt = _make()
        _drive(opt, 10)
        config = opt.ask()
        spec = opt.speculate(1, will_tell=1, exclude=(config,))
        opt.tell(config, _cost(config))
        if spec is not None and opt.confirm_speculation(1) is not None:
            assert opt.confirm_speculation(1) is None

    def test_confirm_refuses_when_incumbent_changed(self):
        """A landed wave that takes over the top of the leaderboard
        invalidates the speculation (the acquisition ranks against it)."""
        opt = _make()
        _drive(opt, 10)
        config = opt.ask()
        spec = opt.speculate(1, will_tell=1, exclude=(config,))
        opt.tell(config, 1e-9)  # a new global incumbent, mid-speculation
        if spec is not None:
            assert opt.confirm_speculation(1) is None


class TestRefitSchedule:
    def test_due_dense_then_geometric(self):
        sched = RefitSchedule(dense_until=4, growth=1.5)
        assert all(sched.due(n, 0) for n in (1, 2, 3, 4))
        assert not sched.due(5, 4)
        assert sched.due(6, 4)  # ceil(4 * 1.5)
        assert not sched.due(8, 6)
        assert sched.due(9, 6)

    def test_validation(self):
        from repro.common.errors import TuningError

        with pytest.raises(TuningError, match="dense_until"):
            RefitSchedule(dense_until=0)
        with pytest.raises(TuningError, match="growth"):
            RefitSchedule(growth=1.0)

    def test_schedule_skips_fits_and_counts_them(self):
        scheduled = _make(schedule=RefitSchedule(dense_until=6))
        every = _make(schedule=None)
        n = 30
        _drive(scheduled, n)
        _drive(every, n)
        # One fit per model-phase ask: asks n_initial+1 .. n.
        assert every.n_refits == n - every.n_initial_points
        assert scheduled.n_refits < every.n_refits
        assert scheduled.n_refits_skipped > 0
        assert (
            scheduled.n_refits + scheduled.n_refits_skipped == every.n_refits
        )

    @pytest.mark.parametrize("pipeline", [False, True])
    @pytest.mark.parametrize("refit_every", [None, 0, 1, 3])
    def test_refit_policy_table(self, refit_every, pipeline):
        """(refit_every, pipeline) -> (refit_interval, schedule): None is
        every observation serially and geometric under the pipeline, 0 is
        always geometric, k >= 1 is every k observations."""
        geometric = (1, (32, 1.5))
        expected = {
            (None, False): (1, None),
            (None, True): geometric,
            (0, False): geometric,
            (0, True): geometric,
            (1, False): (1, None),
            (1, True): (1, None),
            (3, False): (3, None),
            (3, True): (3, None),
        }[(refit_every, pipeline)]
        interval, schedule = refit_policy(refit_every, pipeline)
        got = (
            interval,
            None if schedule is None else (schedule.dense_until, schedule.growth),
        )
        assert got == expected

    def test_refit_policy_rejects_negative(self):
        from repro.common.errors import TuningError

        with pytest.raises(TuningError, match="refit_every"):
            refit_policy(-1, False)
