#include <stdio.h>

int o = 1;
int a = 5;

int main(void) {
    int x = 7;
    int s = 8;
    int g = 1;
    x = s * x;
    a = g - s;
    g = x * o;
    o = o * s;
    {
        int f = 0;
        int h = 9;
        s = h - h;
        a = f * x;
        h = o * a;
    }
    printf("%d\n", a);
    a = a - g;
    return 0;
}
