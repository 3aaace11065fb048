"""Frozen CLI output: fixed-seed commands must print the same bytes.

The shard-seeding contract makes every Monte-Carlo number a function of
the seed alone, so a refactor that keeps the draws and the arithmetic
keeps these bytes.  A change that deliberately alters either re-pins the
affected entries and says so in CHANGES.md.  Experiments are pinned by
their JSON summary line, evaluators by their whole output.
"""

import pytest

from hypergeo import cli

EVAL = {
    "eval-bc-r2": (
        ("eval-bc --field r --q 2 --p 5 --lambda 1+0.5i,0.5 --t "
         "0.8,0.4 --samples 20000 --seed 1"),
        ('{"command": "eval-bc", "inputs": {"field": "r",'
         ' "lambda": "1+0.5i,0.5+0i", "p": 5.0, "q": 2, "t": [0.8,'
         ' 0.4]}, "pass": true, "samples": 20000, "seed": 1,'
         ' "stderr": 0.006129713121001285,'
         ' "value_im": -0.02422477276449804,'
         ' "value_re": 0.6811437340183789}\n'),
    ),
    "eval-bc-c2": (
        ("eval-bc --field c --q 2 --p 5 --lambda 1+0.5i,0.5 --t "
         "0.8,0.4 --samples 20000 --seed 1"),
        ('{"command": "eval-bc", "inputs": {"field": "c",'
         ' "lambda": "1+0.5i,0.5+0i", "p": 5.0, "q": 2, "t": [0.8,'
         ' 0.4]}, "pass": true, "samples": 20000, "seed": 1,'
         ' "stderr": 0.0071973473023627926,'
         ' "value_im": -0.00497154915194802,'
         ' "value_re": 0.353087505230213}\n'),
    ),
    "eval-bc-h2": (
        ("eval-bc --field h --q 2 --p 5 --lambda 1+0.5i,0.5,2,-1i "
         "--t 0.8,0.4 --samples 20000 --seed 1"),
        ('{"command": "eval-bc", "inputs": {"field": "h",'
         ' "lambda": "1+0.5i,0.5+0i", "p": 5.0, "q": 2, "t": [0.8,'
         ' 0.4]}, "pass": true, "samples": 20000, "seed": 1,'
         ' "stderr": 0.004439068373688132,'
         ' "value_im": 0.000532561819758993,'
         ' "value_re": 0.08526340926777905}\n'
         '{"command": "eval-bc", "inputs": {"field": "h",'
         ' "lambda": "2+0i,0-1i", "p": 5.0, "q": 2, "t": [0.8, 0.4]},'
         ' "pass": true, "samples": 20000, "seed": 1,'
         ' "stderr": 0.003899715784342395,'
         ' "value_im": 0.0015389123448164492,'
         ' "value_re": 0.08473270242256753}\n'),
    ),
    "eval-bc-r1-w2": (
        ("eval-bc --field r --q 1 --p 3 --lambda 2,1+1i --t 0.5,1.5 "
         "--samples 20000 --seed 2 --workers 2"),
        ('{"command": "eval-bc", "inputs": {"field": "r",'
         ' "lambda": "2+0i", "p": 3.0, "q": 1, "t": [0.5]},'
         ' "pass": true, "samples": 20000, "seed": 2,'
         ' "stderr": 0.004189447727644246,'
         ' "value_im": 0.0003088246177861187,'
         ' "value_re": 0.8055557981447752}\n'
         '{"command": "eval-bc", "inputs": {"field": "r",'
         ' "lambda": "2+0i", "p": 3.0, "q": 1, "t": [1.5]},'
         ' "pass": true, "samples": 20000, "seed": 2,'
         ' "stderr": 0.0071545271090237145,'
         ' "value_im": -0.0026631681448116584,'
         ' "value_re": 0.023720452560611904}\n'
         '{"command": "eval-bc", "inputs": {"field": "r",'
         ' "lambda": "1+1i", "p": 3.0, "q": 1, "t": [0.5]},'
         ' "pass": true, "samples": 20000, "seed": 2,'
         ' "stderr": 0.004712763155924848,'
         ' "value_im": -0.08070999842144527,'
         ' "value_re": 0.9569583207737635}\n'
         '{"command": "eval-bc", "inputs": {"field": "r",'
         ' "lambda": "1+1i", "p": 3.0, "q": 1, "t": [1.5]},'
         ' "pass": true, "samples": 20000, "seed": 2,'
         ' "stderr": 0.01851812652461768,'
         ' "value_im": -0.5424501226464762,'
         ' "value_re": 0.5879115127187765}\n'),
    ),
    "eval-bc-degenerate": (
        ("eval-bc-degenerate --field c --q 2 --lambda 1,0.5 --t "
         "0.7,0.2 --samples 20000 --seed 3"),
        ('{"command": "eval-bc-degenerate", "inputs": {"field": "c",'
         ' "lambda": "1+0i,0.5+0i", "q": 2, "t": [0.7, 0.2]},'
         ' "pass": true, "samples": 20000, "seed": 3,'
         ' "stderr": 0.005561978273194761,'
         ' "value_im": -0.002761281442748239,'
         ' "value_re": 0.6395280629164518}\n'),
    ),
    "eval-a-csv": (
        ("eval-a --field h --q 2 --lambda 1,0.5 --t 0.6,0.1,0,0 "
         "--samples 20000 --seed 4 --format csv"),
        ("command,field,q,p,lambda,t,value,stderr,samples,seed,pass\n"
         'eval-a,h,2,,"1+0i,0.5+0i","0.59999999999999998,'
         '0.10000000000000001",0.97924181075696604+0.12952606550119447i,'
         "0.0010418230081731094,20000,4,True\n"
         'eval-a,h,2,,"1+0i,0.5+0i","0,0",1+0i,0,20000,4,True\n'),
    ),
    # The phase reducer moved onto the shared np.abs reducer, which
    # changed the last digits of these two stderr values.
    "eval-bessel-integral": (
        ("eval-bessel-integral --field r --q 2 --p 7 --lambda 1,0.5 "
         "--t 0.8,0.3 --samples 20000 --seed 5"),
        ('{"command": "eval-bessel-integral", "inputs": {"field": "r",'
         ' "lambda": "1+0i,0.5+0i", "p": 7.0, "q": 2, "t": [0.8, 0.3]},'
         ' "pass": true, "samples": 20000, "seed": 5,'
         ' "stderr": 0.0017863641719904678,'
         ' "value_im": -0.0031694144506000826,'
         ' "value_re": 0.9675577583341558}\n'),
    ),
    "eval-bessel-integral-boundary": (
        ("eval-bessel-integral --field c --q 2 --p 3 --lambda 1,0.5 "
         "--t 0.8,0.3,1.2,0.1 --samples 20000 --seed 5"),
        ('{"command": "eval-bessel-integral", "inputs": {"field": "c",'
         ' "lambda": "1+0i,0.5+0i", "p": 3.0, "q": 2, "t": [0.8, 0.3]},'
         ' "pass": true, "samples": 20000, "seed": 5,'
         ' "stderr": 0.001928691437619558,'
         ' "value_im": -0.00328956552589345,'
         ' "value_re": 0.9620770060279534}\n'
         '{"command": "eval-bessel-integral", "inputs": {"field": "c",'
         ' "lambda": "1+0i,0.5+0i", "p": 3.0, "q": 2, "t": [1.2, 0.1]},'
         ' "pass": true, "samples": 20000, "seed": 5,'
         ' "stderr": 0.002670717535371986,'
         ' "value_im": -0.004715657945152721,'
         ' "value_re": 0.9259174474515943}\n'),
    ),
    "eval-ho-poly": (
        ("eval-ho-poly --field r --q 2 --p 5 --mu 4,2 --t 0.5,0.2 "
         "--samples 20000 --seed 6"),
        ('{"command": "eval-ho-poly", "inputs": {"field": "r",'
         ' "lambda": "4+0i,2+0i", "p": 5.0, "q": 2, "t": [0.5, 0.2]},'
         ' "pass": true, "samples": 20000, "seed": 6,'
         ' "stderr": 0.38947097690146215, "value_im": 0.0,'
         ' "value_re": 76.47082530076769}\n'),
    ),
}

SUMMARY = {
    "rate-p": (
        ("rate-p --field r --q 2 --lambda 1,0.5 --t-grid "
         "0.5,0.2,1,0.4 --p-list 5,9,17 --samples 16384 --seed 7"),
        ('{"normalized_max": 0.10064907202679707, "pass": true,'
         ' "scale": 1.5, "slope": -1.0807832338705343,'
         ' "slope_halfwidth": 0.04705049375220227,'
         ' "unbounded_regime": false}\n'),
    ),
    "rate-p-readme": (
        ("rate-p --q 1 --lambda 2 --t-grid 0:2:9 --p-list "
         "10,20,40,80,160,320"),
        ('{"normalized_max": 0.33108544859999006, "pass": true,'
         ' "scale": 2.0, "slope": -1.002785529907549,'
         ' "slope_halfwidth": 0.0, "unbounded_regime": false}\n'),
    ),
    "contraction": (
        ("contraction --field r --q 2 --p 3 --lambda 1,0.5 --t 1,0.5 "
         "--n-list 2,4,8 --samples 16384 --seed 8"),
        ('{"normalized_max": 0.24331463886359758, "pass": true,'
         ' "scale": 1.5, "slope": -0.9323498553691967,'
         ' "slope_halfwidth": 0.06813126785337065,'
         ' "unbounded_regime": false}\n'),
    ),
    "boundedness": (
        ("boundedness --field r --q 2 --p 4 --n-lambda 4 --n-t 3 "
         "--samples 16384 --seed 9"),
        ('{"all_bounded": true, "all_positive": true,'
         ' "out_of_hull_max": 12.728396006056595, "pass": true}\n'),
    ),
    "moment-decay": (
        ("moment-decay --field c --q 2 --n 1 --p-list 9,17,33 "
         "--samples 16384 --seed 10"),
        ('{"normalized_max": 16.913725036319878, "pass": true,'
         ' "scale": 1.0, "slope": -1.9669317558516695,'
         ' "slope_halfwidth": 0.003475933794737207,'
         ' "unbounded_regime": false}\n'),
    ),
}


def _run(argv, capsys):
    code = cli.main(argv.split())
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", list(EVAL))
def test_eval_output_frozen(name, capsys):
    argv, want = EVAL[name]
    code, out = _run(argv, capsys)
    assert code == 0
    assert out == want


@pytest.mark.parametrize("name", list(SUMMARY))
def test_experiment_summary_frozen(name, capsys):
    argv, want = SUMMARY[name]
    code, out = _run(argv, capsys)
    assert code == 0
    assert out.splitlines(keepends=True)[-1] == want
