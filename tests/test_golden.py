"""Frozen CLI output: fixed-seed commands must print the same bytes.

The shard-seeding contract makes every Monte-Carlo number a function of
the seed alone, so a refactor that keeps the draws and the arithmetic
keeps these bytes.  A change that deliberately alters either re-pins the
affected entries and says so in CHANGES.md.  SUMMARY pins experiments
by their JSON summary line; EVAL and STDOUT pin whole outputs, and FILES
the files an --output run writes.  The option surface of every
subcommand is frozen too, help strings aside.
"""

import argparse
import json

import pytest

from hypergeo import cli

EVAL = {
    "eval-bc-r2": (
        ("eval-bc --field r --q 2 --p 5 --lambda 1+0.5i,0.5 --t "
         "0.8,0.4 --samples 20000 --seed 1"),
        ('{"command": "eval-bc", "inputs": {"field": "r",'
         ' "lambda": "1+0.5i,0.5+0i", "p": 5.0, "q": 2, "t": [0.8,'
         ' 0.4]}, "pass": true, "samples": 20000, "seed": 1,'
         ' "stderr": 0.006254020235442683,'
         ' "value_im": -0.027334511714485952,'
         ' "value_re": 0.6873740756746324}\n'),
    ),
    "eval-bc-c2": (
        ("eval-bc --field c --q 2 --p 5 --lambda 1+0.5i,0.5 --t "
         "0.8,0.4 --samples 20000 --seed 1"),
        ('{"command": "eval-bc", "inputs": {"field": "c",'
         ' "lambda": "1+0.5i,0.5+0i", "p": 5.0, "q": 2, "t": [0.8,'
         ' 0.4]}, "pass": true, "samples": 20000, "seed": 1,'
         ' "stderr": 0.011311367000758313,'
         ' "value_im": -0.01609513577648802,'
         ' "value_re": 0.36829980435150944}\n'),
    ),
    "eval-bc-h2": (
        ("eval-bc --field h --q 2 --p 5 --lambda 1+0.5i,0.5,2,-1i "
         "--t 0.8,0.4 --samples 20000 --seed 1"),
        ('{"command": "eval-bc", "inputs": {"field": "h",'
         ' "lambda": "1+0.5i,0.5+0i", "p": 5.0, "q": 2, "t": [0.8,'
         ' 0.4]}, "pass": true, "samples": 20000, "seed": 1,'
         ' "stderr": 0.007706993402332746,'
         ' "value_im": -0.0021125719324367755,'
         ' "value_re": 0.09512343111869527}\n'
         '{"command": "eval-bc", "inputs": {"field": "h",'
         ' "lambda": "2+0i,0-1i", "p": 5.0, "q": 2, "t": [0.8, 0.4]},'
         ' "pass": true, "samples": 20000, "seed": 1,'
         ' "stderr": 0.006145601768381352,'
         ' "value_im": -0.0016484013655493875,'
         ' "value_re": 0.09242776313327529}\n'),
    ),
    "eval-bc-r1-w2": (
        ("eval-bc --field r --q 1 --p 3 --lambda 2,1+1i --t 0.5,1.5 "
         "--samples 20000 --seed 2 --workers 2"),
        ('{"command": "eval-bc", "inputs": {"field": "r",'
         ' "lambda": "2+0i", "p": 3.0, "q": 1, "t": [0.5]},'
         ' "pass": true, "samples": 20000, "seed": 2,'
         ' "stderr": 0.004157360010811375,'
         ' "value_im": 0.0029488441710264126,'
         ' "value_re": 0.8070552868352378}\n'
         '{"command": "eval-bc", "inputs": {"field": "r",'
         ' "lambda": "2+0i", "p": 3.0, "q": 1, "t": [1.5]},'
         ' "pass": true, "samples": 20000, "seed": 2,'
         ' "stderr": 0.0070552190367206115,'
         ' "value_im": 0.0038246396499991195,'
         ' "value_re": 0.0292093848951559}\n'
         '{"command": "eval-bc", "inputs": {"field": "r",'
         ' "lambda": "1+1i", "p": 3.0, "q": 1, "t": [0.5]},'
         ' "pass": true, "samples": 20000, "seed": 2,'
         ' "stderr": 0.004669739493392766,'
         ' "value_im": -0.07796547017025726,'
         ' "value_re": 0.9548022454344255}\n'
         '{"command": "eval-bc", "inputs": {"field": "r",'
         ' "lambda": "1+1i", "p": 3.0, "q": 1, "t": [1.5]},'
         ' "pass": true, "samples": 20000, "seed": 2,'
         ' "stderr": 0.01798127276824785,'
         ' "value_im": -0.5149336689643309,'
         ' "value_re": 0.5813073235413183}\n'),
    ),
    "eval-bc-degenerate": (
        ("eval-bc-degenerate --field c --q 2 --lambda 1,0.5 --t "
         "0.7,0.2 --samples 20000 --seed 3"),
        ('{"command": "eval-bc-degenerate", "inputs": {"field": "c",'
         ' "lambda": "1+0i,0.5+0i", "q": 2, "t": [0.7, 0.2]},'
         ' "pass": true, "samples": 20000, "seed": 3,'
         ' "stderr": 0.005602419208040195,'
         ' "value_im": -0.0031481580855501627,'
         ' "value_re": 0.6399263969851355}\n'),
    ),
    "eval-a-csv": (
        ("eval-a --field h --q 2 --lambda 1,0.5 --t 0.6,0.1,0,0 "
         "--samples 20000 --seed 4 --format csv"),
        ("command,field,q,p,lambda,t,value,stderr,samples,seed,pass\n"
         'eval-a,h,2,,"1+0i,0.5+0i","0.59999999999999998,'
         '0.10000000000000001",0.97924181075696581+0.12952606550119442i,'
         "0.0010418230081731155,20000,4,True\n"
         'eval-a,h,2,,"1+0i,0.5+0i","0,0",1+0i,0,20000,4,True\n'),
    ),
    "eval-a-r3": (
        ("eval-a --field r --q 3 --lambda 1,0.5,-0.5,2+1i,1,0.5i --t "
         "0.9,0.5,0.2,1.3e-7,1e-7,0.4e-7 --samples 20000 --seed 6"),
        ('{"command": "eval-a", "inputs": {"field": "r",'
         ' "lambda": "1+0i,0.5+0i,-0.5+0i", "q": 3, "t": [0.9, 0.5,'
         ' 0.2]}, "pass": true, "samples": 20000, "seed": 6,'
         ' "stderr": 0.001386151095112167,'
         ' "value_im": 0.16232785891917415,'
         ' "value_re": 0.9677003353420441}\n'
         '{"command": "eval-a", "inputs": {"field": "r",'
         ' "lambda": "1+0i,0.5+0i,-0.5+0i", "q": 3, "t": [1.3e-07,'
         ' 1e-07, 4e-08]}, "pass": true, "samples": 20000,'
         ' "seed": 6, "stderr": 3.012431766147676e-17,'
         ' "value_im": 4.736155911899652e-15, "value_re": 1.0}\n'
         '{"command": "eval-a", "inputs": {"field": "r",'
         ' "lambda": "2+1i,1+0i,0+0.5i", "q": 3, "t": [0.9, 0.5,'
         ' 0.2]}, "pass": true, "samples": 20000, "seed": 6,'
         ' "stderr": 0.0014037725423946279,'
         ' "value_im": 0.3612618794082643,'
         ' "value_re": 0.672049105813176}\n'
         '{"command": "eval-a", "inputs": {"field": "r",'
         ' "lambda": "2+1i,1+0i,0+0.5i", "q": 3, "t": [1.3e-07,'
         ' 1e-07, 4e-08]}, "pass": true, "samples": 20000,'
         ' "seed": 6, "stderr": 3.975366874887067e-17,'
         ' "value_im": 1.4210171928041663e-14,'
         ' "value_re": 0.999999999999993}\n'),
    ),
    "eval-a-c2-w2": (
        ("eval-a --field c --q 2 --lambda 1+0.5i,0.5,-1,2i --t "
         "0.8,0.3,2e-7,1e-7 --samples 20000 --seed 7 --workers 2"),
        ('{"command": "eval-a", "inputs": {"field": "c",'
         ' "lambda": "1+0.5i,0.5+0i", "q": 2, "t": [0.8, 0.3]},'
         ' "pass": true, "samples": 20000, "seed": 7,'
         ' "stderr": 0.0011783515536191679,'
         ' "value_im": 0.2251924564174851,'
         ' "value_re": 0.8807846411577479}\n'
         '{"command": "eval-a", "inputs": {"field": "c",'
         ' "lambda": "1+0.5i,0.5+0i", "q": 2, "t": [2e-07, 1e-07]},'
         ' "pass": true, "samples": 20000, "seed": 7,'
         ' "stderr": 7.875921257575514e-17,'
         ' "value_im": 1.8672249857409494e-14,'
         ' "value_re": 0.9999999999999937}\n'
         '{"command": "eval-a", "inputs": {"field": "c",'
         ' "lambda": "-1+0i,0+2i", "q": 2, "t": [0.8, 0.3]},'
         ' "pass": true, "samples": 20000, "seed": 7,'
         ' "stderr": 0.00035853968973192555,'
         ' "value_im": -0.12650217505067307,'
         ' "value_re": 0.7021668129562589}\n'
         '{"command": "eval-a", "inputs": {"field": "c",'
         ' "lambda": "-1+0i,0+2i", "q": 2, "t": [2e-07, 1e-07]},'
         ' "pass": true, "samples": 20000, "seed": 7,'
         ' "stderr": 3.096934313925161e-17,'
         ' "value_im": -1.247481562494053e-14,'
         ' "value_re": 0.9999999999999751}\n'),
    ),
    "eval-bessel-integral": (
        ("eval-bessel-integral --field r --q 2 --p 7 --lambda 1,0.5 "
         "--t 0.8,0.3 --samples 20000 --seed 5"),
        ('{"command": "eval-bessel-integral", "inputs": {"field": "r",'
         ' "lambda": "1+0i,0.5+0i", "p": 7.0, "q": 2, "t": [0.8, 0.3]},'
         ' "pass": true, "samples": 20000, "seed": 5,'
         ' "stderr": 0.0017804329545430483,'
         ' "value_im": -0.00042439861788401987,'
         ' "value_re": 0.9677814783169574}\n'),
    ),
    "eval-bessel-integral-boundary": (
        ("eval-bessel-integral --field c --q 2 --p 3 --lambda 1,0.5 "
         "--t 0.8,0.3,1.2,0.1 --samples 20000 --seed 5"),
        ('{"command": "eval-bessel-integral", "inputs": {"field": "c",'
         ' "lambda": "1+0i,0.5+0i", "p": 3.0, "q": 2, "t": [0.8, 0.3]},'
         ' "pass": true, "samples": 20000, "seed": 5,'
         ' "stderr": 0.0019144626777342802,'
         ' "value_im": 0.00043739134116680377,'
         ' "value_re": 0.9626507475715502}\n'
         '{"command": "eval-bessel-integral", "inputs": {"field": "c",'
         ' "lambda": "1+0i,0.5+0i", "p": 3.0, "q": 2, "t": [1.2, 0.1]},'
         ' "pass": true, "samples": 20000, "seed": 5,'
         ' "stderr": 0.0026592659961002436,'
         ' "value_im": 0.0005798300595735944,'
         ' "value_re": 0.9265882316524433}\n'),
    ),
    # The H branch of the phase, one integral over the Haar draw alone.
    "eval-bessel-integral-h2": (
        ("eval-bessel-integral --field h --q 2 --p 5 --lambda 1,0.5 "
         "--t 0.8,0.3 --samples 20000 --seed 5"),
        ('{"command": "eval-bessel-integral", "inputs": {"field": "h",'
         ' "lambda": "1+0i,0.5+0i", "p": 5.0, "q": 2, "t": [0.8, 0.3]},'
         ' "pass": true, "samples": 20000, "seed": 5,'
         ' "stderr": 0.001061738704079536,'
         ' "value_im": -0.00010270452054760196,'
         ' "value_re": 0.988662838351362}\n'),
    ),
    "eval-bessel-integral-c1": (
        ("eval-bessel-integral --field c --q 1 --p 3 --lambda 1.5 "
         "--t 0.8,0 --samples 20000 --seed 5"),
        ('{"command": "eval-bessel-integral", "inputs": {"field": "c",'
         ' "lambda": "1.5+0i", "p": 3.0, "q": 1, "t": [0.8]},'
         ' "pass": true, "samples": 20000, "seed": 5,'
         ' "stderr": 0.003290479408922672,'
         ' "value_im": -0.000555439657530782,'
         ' "value_re": 0.8851297061312002}\n'
         '{"command": "eval-bessel-integral", "inputs": {"field": "c",'
         ' "lambda": "1.5+0i", "p": 3.0, "q": 1, "t": [0.0]},'
         ' "pass": true, "samples": 20000, "seed": 5, "stderr": 0.0,'
         ' "value_im": 0.0, "value_re": 1.0}\n'),
    ),
    # q = 1 draws no Haar unitary for phi; t = 0 rows are exact ones.
    "eval-bc-c1": (
        ("eval-bc --field c --q 1 --p 3 --lambda 2,1+1i --t 0.5,0 "
         "--samples 20000 --seed 2"),
        ('{"command": "eval-bc", "inputs": {"field": "c",'
         ' "lambda": "2+0i", "p": 3.0, "q": 1, "t": [0.5]},'
         ' "pass": true, "samples": 20000, "seed": 2,'
         ' "stderr": 0.004542638384709642,'
         ' "value_im": 0.0016338241415659576,'
         ' "value_re": 0.7625317050057455}\n'
         '{"command": "eval-bc", "inputs": {"field": "c",'
         ' "lambda": "2+0i", "p": 3.0, "q": 1, "t": [0.0]},'
         ' "pass": true, "samples": 20000, "seed": 2, "stderr": 0.0,'
         ' "value_im": 0.0, "value_re": 1.0}\n'
         '{"command": "eval-bc", "inputs": {"field": "c",'
         ' "lambda": "1+1i", "p": 3.0, "q": 1, "t": [0.5]},'
         ' "pass": true, "samples": 20000, "seed": 2,'
         ' "stderr": 0.005759292013917719,'
         ' "value_im": -0.03377704056993673,'
         ' "value_re": 0.8283656420441061}\n'
         '{"command": "eval-bc", "inputs": {"field": "c",'
         ' "lambda": "1+1i", "p": 3.0, "q": 1, "t": [0.0]},'
         ' "pass": true, "samples": 20000, "seed": 2, "stderr": 0.0,'
         ' "value_im": 0.0, "value_re": 1.0}\n'),
    ),
    "eval-ho-poly": (
        ("eval-ho-poly --field r --q 2 --p 5 --mu 4,2 --t 0.5,0.2 "
         "--samples 20000 --seed 6"),
        ('{"command": "eval-ho-poly", "inputs": {"field": "r",'
         ' "lambda": "4+0i,2+0i", "p": 5.0, "q": 2, "t": [0.5, 0.2]},'
         ' "pass": true, "samples": 20000, "seed": 6,'
         ' "stderr": 0.3852207476930076, "value_im": 0.0,'
         ' "value_re": 76.12734743731522}\n'),
    ),
}

SUMMARY = {
    "rate-p": (
        ("rate-p --field r --q 2 --lambda 1,0.5 --t-grid "
         "0.5,0.2,1,0.4 --p-list 5,9,17 --samples 16384 --seed 7"),
        ('{"normalized_max": 0.09931903423181145, "pass": true,'
         ' "scale": 1.5, "slope": -1.0611346155470096,'
         ' "slope_halfwidth": 0.0238247426623317,'
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
        ('{"normalized_max": 0.23638595215482736, "pass": true,'
         ' "scale": 1.5, "slope": -0.949030480357584,'
         ' "slope_halfwidth": 0.05506435942281418,'
         ' "unbounded_regime": false}\n'),
    ),
    "boundedness": (
        ("boundedness --field r --q 2 --p 4 --n-lambda 4 --n-t 3 "
         "--samples 16384 --seed 9"),
        ('{"all_bounded": true, "all_positive": true,'
         ' "out_of_hull_max": 12.624044654888014, "pass": true}\n'),
    ),
    "moment-decay": (
        ("moment-decay --field c --q 2 --n 1 --p-list 9,17,33 "
         "--samples 16384 --seed 10"),
        ('{"normalized_max": 16.929066252749536, "pass": true,'
         ' "scale": 1.0, "slope": -1.9638816086275885,'
         ' "slope_halfwidth": 0.002464288011552629,'
         ' "unbounded_regime": false}\n'),
    ),
}


# Whole stdout and stderr, with the exit code.
STDOUT = {
    "eval-bessel-series": (
        ("eval-bessel-series --field r --q 2 --p 7 --lambda 1,0.5 --t "
         "0.8,0.3,1.2,0.1"), 0,
        ('{"command": "eval-bessel-series", "inputs": {"field": "r",'
         ' "lambda": "1+0i,0.5+0i", "p": 7.0, "q": 2, "t": [0.8, 0.3]},'
         ' "pass": true, "samples": 8, "seed": 0,'
         ' "stderr": 5.9594800482049985e-21, "value_im": 0.0,'
         ' "value_re": 0.9678808860600279}\n'
         '{"command": "eval-bessel-series", "inputs": {"field": "r",'
         ' "lambda": "1+0i,0.5+0i", "p": 7.0, "q": 2, "t": [1.2, 0.1]},'
         ' "pass": true, "samples": 9, "seed": 0,'
         ' "stderr": 7.992810786089046e-21, "value_im": 0.0,'
         ' "value_re": 0.9371535287139239}\n'), "",
    ),
    "eval-bessel-series-csv": (
        ("eval-bessel-series --field h --q 2 --p 9 --lambda 1+0.5i,0.5 "
         "--t 0.6,0.2 --max-degree 6 --format csv"), 0,
        ("command,field,q,p,lambda,t,value,stderr,samples,seed,pass\n"
         'eval-bessel-series,h,2,9.0,"1+0.5i,0.5+0i","0.59999999999999998,'
         '0.20000000000000001",0.99722191033761565-0.0027699654474797651i,'
         "5.5671169728498282e-21,6,0,False\n"), "",
    ),
    "c-function": (
        "c-function --field c --q 2 --p 5 --lambda 2.5+1i,1-0.5i,3,1", 0,
        ('{"command": "c-function", "inputs": {"field": "c",'
         ' "lambda": "2.5+1i,1-0.5i", "p": 5.0, "q": 2}, "pass": true,'
         ' "samples": 0, "seed": 0, "stderr": 0.0,'
         ' "value_im": -484.3839087068274,'
         ' "value_re": 339.73667194408574}\n'
         '{"command": "c-function", "inputs": {"field": "c",'
         ' "lambda": "3+0i,1+0i", "p": 5.0, "q": 2}, "pass": true,'
         ' "samples": 0, "seed": 0, "stderr": 0.0, "value_im": 0.0,'
         ' "value_re": 472.1909398175497}\n'), "",
    ),
    "weyl-scan-readme": (
        "weyl-scan --family b --rank 3 --eps 1 --rho 2,1.9,0.1", 4,
        ("family,rank,rho,eps,witness,pass\n"
         'b,3,"2,1.8999999999999999,0.10000000000000001",1,"0,0,0",True\n'
         'b,3,"2,1.8999999999999999,0.10000000000000001",1,'
         '"1.3333333333333333,1.3333333333333333,1.3333333333333333",'
         "False\n"
         'b,3,"2,1.8999999999999999,0.10000000000000001",1,"1.95,1.95,0",'
         "True\n"
         'b,3,"2,1.8999999999999999,0.10000000000000001",1,'
         '"1.95,1.95,0.10000000000000001",True\n'
         'b,3,"2,1.8999999999999999,0.10000000000000001",1,"2,0,0",True\n'
         'b,3,"2,1.8999999999999999,0.10000000000000001",1,"2,1,1",True\n'
         'b,3,"2,1.8999999999999999,0.10000000000000001",1,'
         '"2,1.8999999999999999,0",True\n'
         'b,3,"2,1.8999999999999999,0.10000000000000001",1,'
         '"2,1.8999999999999999,0.10000000000000001",True\n'
         '{"eps": 1.0, "family": "b", "pass": false, "rank": 3,'
         ' "violations": 1, "witness_rho": [2.0, 1.9, 0.1],'
         ' "witness_vertex": [1.3333333333333333, 1.3333333333333333,'
         ' 1.3333333333333333]}\n'),
        "acceptance predicate failed: no-violations\n",
    ),
    "eps0": (
        "eps0 --family b --rank 2 --rho-samples 4", 0,
        '{"eps0": 1.0, "family": "b", "rank": 2}\n', "",
    ),
    "jack-table-readme": (
        "jack-table --weight 3 --rank 2", 0,
        ("partition,monomial,coefficient,alpha,c_at_ones\n"
         "3,3,1,1,4\n3,2+1,1,1,4\n2+1,2+1,2,1,4\n"), "",
    ),
    "boundedness-csv": (
        ("boundedness --field r --q 1 --p 3 --n-lambda 3 --n-t 2 "
         "--samples 8192 --seed 9"), 0,
        ("lambda,t,value,stderr,bounded,positive\n"
         "0-0.41165740750096891i,0,1+0i,0,True,True\n"
         "0-0.41165740750096891i,3,0.38063645191514472+0i,"
         "0.004384311308482481,True,True\n"
         "0.10351865637760849-0.85372974945722824i,0,1+0i,0,True,\n"
         "0.10351865637760849-0.85372974945722824i,3,"
         "0.734237139829374+0.14375093143020054i,0.0015991050732586216,"
         "True,\n"
         "-0.040966810223886707+0.22927212940944375i,0,1+0i,0,True,\n"
         "-0.040966810223886707+0.22927212940944375i,3,"
         "0.30934834038863795+0.0069698938677574436i,0.015867950639802685,"
         "True,\n"
         '{"all_bounded": true, "all_positive": true,'
         ' "out_of_hull_max": 2.990619368805251, "pass": true}\n'), "",
    ),
}

# Every file an --output run writes, by suffix; stdout stays empty.
FILES = {
    "rate-p": (
        "rate-p --q 1 --lambda 2 --t-grid 0:2:5 --p-list 10,20,40",
        {"": ("p,error,stderr,normalized\n"
              "10,0.20939682354291494,0,0.33108544859999006\n"
              "20,0.10532864203294114,0,0.23552200356339803\n"
              "40,0.052435429247032719,0,0.16581538650923125\n"),
         ".summary.json": (
             '{"normalized_max": 0.33108544859999006, "pass": true,'
             ' "scale": 2.0, "slope": -0.9988128598846541,'
             ' "slope_halfwidth": 0.0, "unbounded_regime": false}\n')},
    ),
    "eval-bc-csv": (
        ("eval-bc --q 2 --p 5 --lambda 1+1i,0.5 --t 0.9,0.3 --samples 4000 "
         "--seed 11 --format csv"),
        {"": ("command,field,q,p,lambda,t,value,stderr,samples,seed,pass\n"
              'eval-bc,r,2,5.0,"1+1i,0.5+0i","0.90000000000000002,'
              '0.29999999999999999",0.68276613465230052-0.068276502793218785i,'
              "0.019574138603171004,4000,11,True\n")},
    ),
    "eps0": (
        "eps0 --family a --rank 2 --rho-samples 2",
        {"": '{"eps0": 0.5, "family": "a", "rank": 2}\n'},
    ),
    "jack-table": (
        "jack-table --weight 2 --rank 2 --alpha 0.5",
        {"": ("partition,monomial,coefficient,alpha,c_at_ones\n"
              "2,2,1,0.5,3.333333333333333\n"
              "2,1+1,1.3333333333333333,0.5,3.333333333333333\n"
              "1+1,1+1,0.66666666666666663,0.5,0.66666666666666663\n")},
    ),
    "weyl-scan": (
        "weyl-scan --family b --rank 2 --eps 0.5 --rho 2,1",
        {"": ("family,rank,rho,eps,witness,pass\n"
              'b,2,"2,1",0.5,"0,0",True\nb,2,"2,1",0.5,"1.5,1.5",True\n'
              'b,2,"2,1",0.5,"2,0",True\nb,2,"2,1",0.5,"2,1",True\n'),
         ".summary.json": ('{"eps": 0.5, "family": "b", "pass": true,'
                           ' "rank": 2, "violations": 0}\n')},
    ),
}

# Each subcommand's flags in order, as (dest, default, type, choices,
# required).
_EVAL = ("--field", "--q", "--lambda", "--t", "--samples", "--seed",
         "--workers", "--format", "--output")
_EXPERIMENT = ("--samples", "--seed", "--workers", "--output")
FLAG = {
    "--field": ("field", "r", None, None, False),
    "--q": ("q", None, "int", None, True),
    "--p": ("p", None, "float", None, True),
    "--lambda": ("lam", None, None, None, True),
    "--t": ("t", None, None, None, True),
    "--mu": ("mu", None, None, None, True),
    "--samples": ("samples", 100000, "int", None, False),
    "--seed": ("seed", None, "int", None, False),
    "--workers": ("workers", 1, "int", None, False),
    "--format": ("format", "jsonl", None, ("jsonl", "csv"), False),
    "--output": ("output", None, None, None, False),
    "--max-degree": ("max_degree", 30, "int", None, False),
    "--rel-tol": ("rel_tol", 1e-12, "float", None, False),
    "--t-grid": ("t_grid", None, None, None, True),
    "--p-list": ("p_list", None, None, None, True),
    "--n-list": ("n_list", None, None, None, True),
    "--n-lambda": ("n_lambda", 12, "int", None, False),
    "--n-t": ("n_t", 7, "int", None, False),
    "--n": ("n", None, "int", None, True),
    "--family": ("family", None, None, None, True),
    "--rank": ("rank", None, "int", None, True),
    "--eps": ("eps", None, "float", None, True),
    "--rho": ("rho", None, None, None, False),
    "--rho-samples": ("rho_samples", 40, "int", None, False),
    "--resolution": ("resolution", 0.001, "float", None, False),
    "--weight": ("weight", None, "int", None, True),
    "--alpha": ("alpha", 1.0, "float", None, False),
}
SURFACE = {
    "eval-bc": _EVAL + ("--p",),
    "eval-bessel-series": ("--field", "--q", "--lambda", "--t", "--format",
                           "--output", "--p", "--max-degree", "--rel-tol"),
    "eval-bessel-integral": _EVAL + ("--p",),
    "c-function": ("--field", "--q", "--lambda", "--format", "--output",
                   "--p"),
    "eval-bc-degenerate": _EVAL,
    "eval-a": _EVAL,
    "eval-ho-poly": ("--field", "--q", "--p", "--mu", "--t", "--samples",
                     "--seed", "--workers", "--format", "--output"),
    "rate-p": ("--field", "--q", "--lambda", "--t-grid", "--p-list")
    + _EXPERIMENT,
    "contraction": ("--field", "--q", "--p", "--lambda", "--t", "--n-list")
    + _EXPERIMENT,
    "boundedness": ("--field", "--q", "--p", "--n-lambda", "--n-t")
    + _EXPERIMENT,
    "moment-decay": ("--field", "--q", "--n", "--p-list") + _EXPERIMENT,
    "weyl-scan": ("--family", "--rank", "--eps", "--rho", "--rho-samples",
                  "--output"),
    "eps0": ("--family", "--rank", "--rho-samples", "--resolution",
             "--output"),
    "jack-table": ("--weight", "--rank", "--alpha", "--output"),
}
OWN_FLAG = {
    ("weyl-scan", "--rho-samples"): ("rho_samples", 20, "int", None, False),
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


def test_boundary_eval_bc_matches_degenerate(capsys):
    """eval-bc at p = 2q - 1 runs the boundary law of eval-bc-degenerate
    and prints the same value and stderr bytes as its pinned record."""
    want = json.loads(EVAL["eval-bc-degenerate"][1])
    code, out = _run("eval-bc --field c --q 2 --p 3 --lambda 1,0.5 --t "
                     "0.7,0.2 --samples 20000 --seed 3", capsys)
    assert code == 0
    got = json.loads(out)
    for key in ("value_re", "value_im", "stderr"):
        assert repr(got[key]) == repr(want[key])


@pytest.mark.parametrize("name", list(SUMMARY))
def test_experiment_summary_frozen(name, capsys):
    argv, want = SUMMARY[name]
    code, out = _run(argv, capsys)
    assert code == 0
    assert out.splitlines(keepends=True)[-1] == want


@pytest.mark.parametrize("name", list(STDOUT))
def test_whole_output_frozen(name, capsys):
    argv, want_code, want_out, want_err = STDOUT[name]
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (want_code, want_out,
                                                  want_err)


@pytest.mark.parametrize("name", list(FILES))
def test_output_files_frozen(name, tmp_path, capsys):
    argv, want = FILES[name]
    path = tmp_path / "out"
    assert cli.main(argv.split() + ["--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    written = {p.name[len("out"):]: p.read_bytes()
               for p in tmp_path.iterdir()}
    assert written == {k: v.encode() for k, v in want.items()}


def test_option_surface_frozen():
    parser = cli.build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices
    assert list(subs) == list(SURFACE)
    for name, sub in subs.items():
        seen = [(a.option_strings, (a.dest, a.default,
                                    a.type and a.type.__name__,
                                    a.choices, a.required))
                for a in sub._actions
                if not isinstance(a, argparse._HelpAction)]
        want = [([flag], OWN_FLAG.get((name, flag), FLAG[flag]))
                for flag in SURFACE[name]]
        assert seen == want, name
