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
         ' "stderr": 0.00625705224258764,'
         ' "value_im": -0.027716957365150972,'
         ' "value_re": 0.6899613797635927}\n'),
    ),
    "eval-bc-c2": (
        ("eval-bc --field c --q 2 --p 5 --lambda 1+0.5i,0.5 --t "
         "0.8,0.4 --samples 20000 --seed 1"),
        ('{"command": "eval-bc", "inputs": {"field": "c",'
         ' "lambda": "1+0.5i,0.5+0i", "p": 5.0, "q": 2, "t": [0.8,'
         ' 0.4]}, "pass": true, "samples": 20000, "seed": 1,'
         ' "stderr": 0.010072394690730124,'
         ' "value_im": -0.011091073321327808,'
         ' "value_re": 0.36203044891805636}\n'),
    ),
    "eval-bc-h2": (
        ("eval-bc --field h --q 2 --p 5 --lambda 1+0.5i,0.5,2,-1i "
         "--t 0.8,0.4 --samples 20000 --seed 1"),
        ('{"command": "eval-bc", "inputs": {"field": "h",'
         ' "lambda": "1+0.5i,0.5+0i", "p": 5.0, "q": 2, "t": [0.8,'
         ' 0.4]}, "pass": true, "samples": 20000, "seed": 1,'
         ' "stderr": 0.006266722986136654,'
         ' "value_im": -0.0001848765199691565,'
         ' "value_re": 0.08849353596077693}\n'
         '{"command": "eval-bc", "inputs": {"field": "h",'
         ' "lambda": "2+0i,0-1i", "p": 5.0, "q": 2, "t": [0.8, 0.4]},'
         ' "pass": true, "samples": 20000, "seed": 1,'
         ' "stderr": 0.004929827170546459,'
         ' "value_im": 0.002029442784818022,'
         ' "value_re": 0.08679041264955177}\n'),
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
         ' "stderr": 0.005573810340416991,'
         ' "value_im": -0.0019867647467520567,'
         ' "value_re": 0.6372202682465521}\n'),
    ),
    "eval-a-csv": (
        ("eval-a --field h --q 2 --lambda 1,0.5 --t 0.6,0.1,0,0 "
         "--samples 20000 --seed 4 --format csv"),
        ("command,field,q,p,lambda,t,value,stderr,samples,seed,pass\n"
         'eval-a,h,2,,"1+0i,0.5+0i","0.59999999999999998,'
         '0.10000000000000001",0.98006869749466696+0.12952727373635645i,'
         "0.0010445730035145485,20000,4,True\n"
         'eval-a,h,2,,"1+0i,0.5+0i","0,0",1+0i,0,20000,4,True\n'),
    ),
    "eval-a-r3": (
        ("eval-a --field r --q 3 --lambda 1,0.5,-0.5,2+1i,1,0.5i --t "
         "0.9,0.5,0.2,1.3e-7,1e-7,0.4e-7 --samples 20000 --seed 6"),
        ('{"command": "eval-a", "inputs": {"field": "r",'
         ' "lambda": "1+0i,0.5+0i,-0.5+0i", "q": 3, "t": [0.9, 0.5,'
         ' 0.2]}, "pass": true, "samples": 20000, "seed": 6,'
         ' "stderr": 0.0013679642098360627,'
         ' "value_im": 0.16354762794266461,'
         ' "value_re": 0.9665344179606966}\n'
         '{"command": "eval-a", "inputs": {"field": "r",'
         ' "lambda": "1+0i,0.5+0i,-0.5+0i", "q": 3, "t": [1.3e-07,'
         ' 1e-07, 4e-08]}, "pass": true, "samples": 20000,'
         ' "seed": 6, "stderr": 2.989405086222222e-17,'
         ' "value_im": 4.752404025865041e-15, "value_re": 1.0}\n'
         '{"command": "eval-a", "inputs": {"field": "r",'
         ' "lambda": "2+1i,1+0i,0+0.5i", "q": 3, "t": [0.9, 0.5,'
         ' 0.2]}, "pass": true, "samples": 20000, "seed": 6,'
         ' "stderr": 0.001391814966555339,'
         ' "value_im": 0.36218199748055396,'
         ' "value_re": 0.6714627877449707}\n'
         '{"command": "eval-a", "inputs": {"field": "r",'
         ' "lambda": "2+1i,1+0i,0+0.5i", "q": 3, "t": [1.3e-07,'
         ' 1e-07, 4e-08]}, "pass": true, "samples": 20000,'
         ' "seed": 6, "stderr": 3.957483248502355e-17,'
         ' "value_im": 1.4223400235380075e-14,'
         ' "value_re": 0.999999999999993}\n'),
    ),
    "eval-a-c2-w2": (
        ("eval-a --field c --q 2 --lambda 1+0.5i,0.5,-1,2i --t "
         "0.8,0.3,2e-7,1e-7 --samples 20000 --seed 7 --workers 2"),
        ('{"command": "eval-a", "inputs": {"field": "c",'
         ' "lambda": "1+0.5i,0.5+0i", "q": 2, "t": [0.8, 0.3]},'
         ' "pass": true, "samples": 20000, "seed": 7,'
         ' "stderr": 0.001179126636362231,'
         ' "value_im": 0.2252329698832612,'
         ' "value_re": 0.8815242596415638}\n'
         '{"command": "eval-a", "inputs": {"field": "c",'
         ' "lambda": "1+0.5i,0.5+0i", "q": 2, "t": [2e-07, 1e-07]},'
         ' "pass": true, "samples": 20000, "seed": 7,'
         ' "stderr": 7.866630910627688e-17,'
         ' "value_im": 1.8660653577917283e-14,'
         ' "value_re": 0.9999999999999939}\n'
         '{"command": "eval-a", "inputs": {"field": "c",'
         ' "lambda": "-1+0i,0+2i", "q": 2, "t": [0.8, 0.3]},'
         ' "pass": true, "samples": 20000, "seed": 7,'
         ' "stderr": 0.00035840591659913167,'
         ' "value_im": -0.1262753641490323,'
         ' "value_re": 0.7022090031322058}\n'
         '{"command": "eval-a", "inputs": {"field": "c",'
         ' "lambda": "-1+0i,0+2i", "q": 2, "t": [2e-07, 1e-07]},'
         ' "pass": true, "samples": 20000, "seed": 7,'
         ' "stderr": 3.0939285974910424e-17,'
         ' "value_im": -1.24539489831927e-14,'
         ' "value_re": 0.9999999999999751}\n'),
    ),
    "eval-bessel-integral": (
        ("eval-bessel-integral --field r --q 2 --p 7 --lambda 1,0.5 "
         "--t 0.8,0.3 --samples 20000 --seed 5"),
        ('{"command": "eval-bessel-integral", "inputs": {"field": "r",'
         ' "lambda": "1+0i,0.5+0i", "p": 7.0, "q": 2, "t": [0.8, 0.3]},'
         ' "pass": true, "samples": 20000, "seed": 5,'
         ' "stderr": 0.0017777659290462637,'
         ' "value_im": -0.0037952774083828645,'
         ' "value_re": 0.9678721826252881}\n'),
    ),
    "eval-bessel-integral-boundary": (
        ("eval-bessel-integral --field c --q 2 --p 3 --lambda 1,0.5 "
         "--t 0.8,0.3,1.2,0.1 --samples 20000 --seed 5"),
        ('{"command": "eval-bessel-integral", "inputs": {"field": "c",'
         ' "lambda": "1+0i,0.5+0i", "p": 3.0, "q": 2, "t": [0.8, 0.3]},'
         ' "pass": true, "samples": 20000, "seed": 5,'
         ' "stderr": 0.0019382929726197901,'
         ' "value_im": 0.003659208168481328,'
         ' "value_re": 0.9616896678458361}\n'
         '{"command": "eval-bessel-integral", "inputs": {"field": "c",'
         ' "lambda": "1+0i,0.5+0i", "p": 3.0, "q": 2, "t": [1.2, 0.1]},'
         ' "pass": true, "samples": 20000, "seed": 5,'
         ' "stderr": 0.0026819548394807773,'
         ' "value_im": 0.0048350145162746865,'
         ' "value_re": 0.9252669816946567}\n'),
    ),
    # The H branch of the phase, one integral over the Haar draw alone.
    "eval-bessel-integral-h2": (
        ("eval-bessel-integral --field h --q 2 --p 5 --lambda 1,0.5 "
         "--t 0.8,0.3 --samples 20000 --seed 5"),
        ('{"command": "eval-bessel-integral", "inputs": {"field": "h",'
         ' "lambda": "1+0i,0.5+0i", "p": 5.0, "q": 2, "t": [0.8, 0.3]},'
         ' "pass": true, "samples": 20000, "seed": 5,'
         ' "stderr": 0.0010543135375594547,'
         ' "value_im": -0.0018065821085762822,'
         ' "value_re": 0.9888201027241823}\n'),
    ),
    "eval-bessel-integral-c1": (
        ("eval-bessel-integral --field c --q 1 --p 3 --lambda 1.5 "
         "--t 0.8,0 --samples 20000 --seed 5"),
        ('{"command": "eval-bessel-integral", "inputs": {"field": "c",'
         ' "lambda": "1.5+0i", "p": 3.0, "q": 1, "t": [0.8]},'
         ' "pass": true, "samples": 20000, "seed": 5,'
         ' "stderr": 0.003290479408922672,'
         ' "value_im": -0.0005554396575307798,'
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
         ' "stderr": 0.38308910737770974, "value_im": 0.0,'
         ' "value_re": 75.90878297584017}\n'),
    ),
}

SUMMARY = {
    "rate-p": (
        ("rate-p --field r --q 2 --lambda 1,0.5 --t-grid "
         "0.5,0.2,1,0.4 --p-list 5,9,17 --samples 16384 --seed 7"),
        ('{"normalized_max": 0.09685128468728958, "pass": true,'
         ' "scale": 1.5, "slope": -1.062753007248249,'
         ' "slope_halfwidth": 0.02244063086138226,'
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
        ('{"normalized_max": 0.22270708494448654, "pass": true,'
         ' "scale": 1.5, "slope": -0.979271263665049,'
         ' "slope_halfwidth": 0.15351510090507636,'
         ' "unbounded_regime": false}\n'),
    ),
    "boundedness": (
        ("boundedness --field r --q 2 --p 4 --n-lambda 4 --n-t 3 "
         "--samples 16384 --seed 9"),
        ('{"all_bounded": true, "all_positive": true,'
         ' "out_of_hull_max": 12.576771116182837, "pass": true}\n'),
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
              '0.29999999999999999",0.68094331778174522-0.06212902865389431i,'
              "0.018812600798478015,4000,11,True\n")},
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
